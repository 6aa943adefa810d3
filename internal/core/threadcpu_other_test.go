//go:build !linux

package core

import "time"

var processStart = time.Now()

// threadCPU falls back to wall-clock time where the kernel reports no
// per-thread CPU time.
func threadCPU() time.Duration { return time.Since(processStart) }
