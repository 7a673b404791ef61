//go:build race

package experiments

// raceOn reports whether the race detector instruments this test binary.
const raceOn = true
