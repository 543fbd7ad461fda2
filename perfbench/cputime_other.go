//go:build !linux

package main

import "time"

var origin = time.Now()

// threadCPU falls back to the monotonic wall clock where per-thread CPU
// clocks are not available.
func threadCPU() time.Duration { return time.Since(origin) }
