//go:build race

package cluster

// raceEnabled lets allocation budgets stand down under the race detector,
// which makes sync.Pool drop Puts at random.
const raceEnabled = true
