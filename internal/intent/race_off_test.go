//go:build !race

package intent

const raceEnabled = false
