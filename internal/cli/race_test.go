//go:build race

package cli

// raceEnabled reports whether the race detector instruments this build;
// allocation-bound tests skip under it (its instrumentation changes
// what allocates and how much).
const raceEnabled = true
