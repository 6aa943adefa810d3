//go:build race

package event

// raceEnabled reports whether this binary was built with the race detector,
// whose instrumentation allocates: the allocation pin skips itself.
const raceEnabled = true
