//go:build race

package engine

// raceEnabled reports a race-detector build, under which sync.Pool
// drops a random share of the items put back.
const raceEnabled = true
