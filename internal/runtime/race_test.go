//go:build race

package runtime

// raceEnabled reports a -race build. Its runtime allocates where a normal
// build does not: sync.Pool drops a random quarter of what is Put back.
const raceEnabled = true
