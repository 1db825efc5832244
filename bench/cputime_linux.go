package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPU returns the CPU time the whole process has consumed so far
// (every thread, user + system), read from CLOCK_PROCESS_CPUTIME_ID. The
// scheduler keeps it at nanosecond resolution, where getrusage is
// tick-accounted on many kernels — too coarse for sub-millisecond runs.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("bench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
