//go:build !race

package sdds

// raceEnabled reports a -race build, whose sync.Pool drops puts at
// random: allocation counts over pooled scratch are not stable there.
const raceEnabled = false
