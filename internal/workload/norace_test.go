//go:build !race

package workload

// raceEnabled is false in ordinary builds; see race_test.go.
const raceEnabled = false
