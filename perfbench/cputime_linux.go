//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
