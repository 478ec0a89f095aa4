// Package engine proves detrand's scope extends to *Chaos* and *Soak*
// functions inside packages that are otherwise out of scope.
package engine

import "time"

// StirChaos is in scope by function name.
func StirChaos() time.Time {
	return time.Now() // want `naked time\.Now in deterministic code`
}

// StirSoak is in scope by function name.
func StirSoak() {
	time.Sleep(time.Millisecond) // want `naked time\.Sleep in deterministic code`
}

// Plain is out of scope: the same call draws no finding.
func Plain() time.Time {
	return time.Now()
}
