//go:build race

package workload

// raceEnabled reports whether the race detector instruments this build;
// allocation-bound tests skip under it (its instrumentation changes
// what allocates and how much).
const raceEnabled = true
