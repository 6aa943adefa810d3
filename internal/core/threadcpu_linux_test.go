package core

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU reports the CPU time, user and system, that the calling OS
// thread has consumed. Callers lock their goroutine to its thread. It reads
// clock_gettime rather than getrusage(RUSAGE_THREAD): the kernel brings the
// rusage figure up to date only at a tick or a context switch, so a batch
// of a millisecond can read as zero.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
