package telemetry

import (
	"testing"
)

// A counter increment is one atomic add on one word. BenchmarkCounterInc
// hammers one held counter from every CPU, which no caller does: callers
// look their counter up by name first (BenchmarkRegistryLookup). Run with
// -cpu to see the parallel scaling.

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("c_total")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkRegistryLookup(b *testing.B) {
	reg := New()
	reg.Counter("hot_total")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			reg.Counter("hot_total").Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("h", DefSecondsBuckets)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(3.7)
		}
	})
}

func BenchmarkTracerRecordCommit(b *testing.B) {
	tr := NewTracer(1 << 12)
	for i := 0; i < b.N; i++ {
		tr.Record("key", Event{Kind: EvAttempt, Attempt: 0, Cost: 1})
		tr.Commit("key", float64(i))
	}
}
