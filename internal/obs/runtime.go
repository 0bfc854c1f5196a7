package obs

import "runtime"

// RegisterRuntimeGauges wires the process-health gauges the profiling
// surface pairs with: goroutine count, heap usage, and GC pause totals.
// They are GaugeFuncs, so the (comparatively expensive) runtime reads
// happen only when something scrapes /metrics, never on the
// query path.
func RegisterRuntimeGauges(r *Registry) {
	r.GaugeFunc("sieve_goroutines", func() int64 {
		return int64(runtime.NumGoroutine())
	})
	memstat := func(read func(*runtime.MemStats) int64) func() int64 {
		return func() int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return read(&ms)
		}
	}
	r.GaugeFunc("sieve_heap_alloc_bytes", memstat(func(ms *runtime.MemStats) int64 {
		return int64(ms.HeapAlloc)
	}))
	r.GaugeFunc("sieve_heap_objects", memstat(func(ms *runtime.MemStats) int64 {
		return int64(ms.HeapObjects)
	}))
	r.GaugeFunc("sieve_gc_pause_total_ns", memstat(func(ms *runtime.MemStats) int64 {
		return int64(ms.PauseTotalNs)
	}))
	r.GaugeFunc("sieve_gc_cycles", memstat(func(ms *runtime.MemStats) int64 {
		return int64(ms.NumGC)
	}))
}
