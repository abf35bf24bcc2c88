//go:build !race

package dsps_test

// raceEnabled: see race_on_test.go.
const raceEnabled = false
