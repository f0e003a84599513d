//go:build race

package pascalr

// raceEnabled reports a race-detector build, whose instrumentation
// allocates on its own.
const raceEnabled = true
