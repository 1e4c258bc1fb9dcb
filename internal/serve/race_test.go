//go:build race

package serve

// raceEnabled: under the race detector sync.Pool drops a share of the
// objects put into it, so allocation counts say nothing about the pool.
const raceEnabled = true
