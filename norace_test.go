//go:build !race

package pascalr

const raceEnabled = false
