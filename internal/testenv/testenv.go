// Package testenv tells tests about the binary they run in.
package testenv

import (
	"runtime"
	"runtime/debug"
)

// Race reports whether the binary was built with -race. The detector
// makes sync.Pool drop a share of what it is handed, so an allocation
// pin on a path that recycles through a pool can only hold without it.
func Race() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// HeapAfterGC returns the live heap in bytes after a forced collection.
// It is signed so that the difference of two readings does not wrap when
// the heap shrank in between.
func HeapAfterGC() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
