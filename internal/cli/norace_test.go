//go:build !race

package cli

// raceEnabled is false in ordinary builds; see race_test.go.
const raceEnabled = false
