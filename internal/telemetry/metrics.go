// Package telemetry is the tuning farm's observability subsystem: a
// low-overhead metric registry (counters, gauges, fixed-bucket histograms)
// with Prometheus text-format exposition, and a structured session tracer —
// a bounded ring buffer of typed events whose JSONL export is
// byte-deterministic under a fixed seed and the virtual clock.
//
// Every type in the package is nil-safe: methods on a nil *Registry,
// *Counter, *Gauge, *Histogram, or *Tracer are no-ops (or return zero), so
// instrumented code paths pay a single predictable branch when telemetry is
// switched off instead of threading conditionals everywhere. The hot-path
// cost of a live counter is one atomic add on one word; see
// BenchmarkCounter* for the measured numbers.
package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing sum.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.n.Add(n)
}

// Value returns the current sum.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a float64 instantaneous value (queue depth, best score so far).
type Gauge struct {
	bits uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := atomic.LoadUint64(&g.bits)
		next := math.Float64bits(math.Float64frombits(old) + d)
		if atomic.CompareAndSwapUint64(&g.bits, old, next) {
			return
		}
	}
}

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// Histogram counts observations into fixed buckets (cumulative on export,
// Prometheus-style) and tracks their sum. Observations land in the first
// bucket whose upper bound is ≥ the value; larger values land in the
// implicit +Inf bucket.
type Histogram struct {
	bounds  []float64 // sorted upper bounds
	buckets []uint64  // len(bounds)+1; last is +Inf
	sumBits uint64
	count   uint64
}

// DefSecondsBuckets suits virtual measurement costs: sub-second launches up
// through paper-scale timeouts.
var DefSecondsBuckets = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000}

// DefLatencyBuckets suits real-time latencies (searcher proposals), in
// seconds from a microsecond up.
var DefLatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	atomic.AddUint64(&h.buckets[i], 1)
	atomic.AddUint64(&h.count, 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return atomic.LoadUint64(&h.count)
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&h.sumBits))
}

// snapshot returns the per-bucket counts (non-cumulative), their total, and
// the observation sum. The total is derived from the bucket reads so the
// exposition is always internally consistent (cumulative buckets end at the
// reported count), even when observations race the scrape.
func (h *Histogram) snapshot() (counts []uint64, sum float64, total uint64) {
	counts = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = atomic.LoadUint64(&h.buckets[i])
		total += counts[i]
	}
	sum = math.Float64frombits(atomic.LoadUint64(&h.sumBits))
	return counts, sum, total
}
