//go:build !race

package engine

// raceEnabled reports whether the race detector is on: it drops pooled
// objects on purpose, so allocation counts do not hold under it.
const raceEnabled = false
