//go:build race

package dsps_test

// raceEnabled reports a -race build, whose sync.Pool drops pooled items at
// random: allocation bounds that rest on a pool hold only without it.
const raceEnabled = true
