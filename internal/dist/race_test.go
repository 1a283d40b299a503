//go:build race

package dist

// raceEnabled reports a -race build. sync.Pool then drops a random share
// of Puts, so a pin that counts on pooled holders coming back cannot hold.
const raceEnabled = true
