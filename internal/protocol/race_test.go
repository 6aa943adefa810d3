//go:build race

package protocol

// raceEnabled reports whether this binary was built with the race detector,
// whose instrumentation allocates: the allocation pins skip themselves.
const raceEnabled = true
