//go:build race

package intent

// raceEnabled lets the cold-build allocation budget stand down under the
// race detector, whose instrumentation adds ≈ 12 % to that count.
const raceEnabled = true
