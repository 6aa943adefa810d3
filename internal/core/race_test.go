//go:build race

package core

// raceEnabled reports whether this binary was built with the race
// detector; timing-comparison tests skip themselves under its
// instrumentation overhead.
const raceEnabled = true
