//go:build race

package dist

// raceEnabled: the race detector is on, and sync.Pool drops a quarter of
// what is put back.
const raceEnabled = true
