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

// BenchmarkTracerSession prices one session's worth of tracing into a
// fresh tracer at the capacity autotune and prodbench give every session
// (2^18): 350 trials of a 2-worker session, each a proposal, one launch
// attempt recorded and committed, and an observation, with a barrier per
// round of two — about 1,230 events, what a default-budget fop session
// commits.
func BenchmarkTracerSession(b *testing.B) {
	const trials = 350
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := NewTracer(1 << 18)
		tr.Emit(Event{Kind: EvBaseline, Cost: 20})
		for trial := 1; trial <= trials; trial++ {
			vt := float64(trial) * 10
			tr.Emit(Event{Kind: EvProposal, Key: "cfg", Worker: trial % 2})
			tr.Record("cfg", Event{Kind: EvAttempt, Cost: 10, Detail: "ok"})
			tr.Commit("cfg", vt)
			tr.Emit(Event{Kind: EvObserve, Key: "cfg", T: vt, Trial: trial, Cost: 10, Score: 10})
			if trial%2 == 0 {
				tr.Emit(Event{Kind: EvBarrier, T: vt})
			}
		}
	}
}
