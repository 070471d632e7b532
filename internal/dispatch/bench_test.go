// Dispatch-overhead benchmarks: the same trial measured through the
// in-process runner and through the Pool over a loopback-HTTP evald
// node. The pair quantifies what one network hop costs per trial — the
// baseline the BENCH_*.json trajectory tracks for the distributed plane.
package dispatch_test

import (
	"testing"

	"repro/internal/dispatch"
	"repro/internal/flags"
	"repro/internal/flags/flagstest"
	"repro/internal/jvmsim"
	"repro/internal/runner"
)

// benchMeasure drives one fresh (cache-disabled) single-rep measurement
// per iteration: the propose→format→dispatch→simulate→decode path with
// the memoization layer out of the way, so the transport is what's timed.
func benchMeasure(b *testing.B, run runner.Runner) {
	b.Helper()
	cfg := flags.NewConfig(flags.NewRegistry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := run.Measure(cfg, 1)
		if m.Failed {
			b.Fatalf("measurement failed: %s: %s", m.Failure, m.FailureMessage)
		}
	}
}

// BenchmarkDispatchInProcess is the floor: the same trial with no
// transport at all.
func BenchmarkDispatchInProcess(b *testing.B) {
	ip := runner.NewInProcess(jvmsim.New(), profileOf(b, "fop"))
	ip.DisableCache = true
	benchMeasure(b, ip)
}

// BenchmarkDispatchLoopback measures the full remote path: request
// encode, loopback HTTP to a real evald handler on a real socket,
// evaluate, answer decode. The delta against BenchmarkDispatchInProcess is the
// per-trial dispatch overhead.
func BenchmarkDispatchLoopback(b *testing.B) {
	_, evs := startFleet(b, 1)
	pool, err := dispatch.NewPool(profileOf(b, "fop"), evs...)
	if err != nil {
		b.Fatal(err)
	}
	pool.DisableCache = true
	benchMeasure(b, pool)
}

// BenchmarkDispatchLoopback3Nodes spreads the same fresh trials across a
// three-node fleet, exercising shard placement and in-flight accounting
// alongside the wire cost.
func BenchmarkDispatchLoopback3Nodes(b *testing.B) {
	_, evs := startFleet(b, 3)
	pool, err := dispatch.NewPool(profileOf(b, "fop"), evs...)
	if err != nil {
		b.Fatal(err)
	}
	pool.DisableCache = true
	benchMeasure(b, pool)
}

// BenchmarkDispatchBatch16 ships 16 distinct fresh trials per
// evaluate-batch round trip to the same loopback node. ns/op stays
// per-trial (the counter advances by the batch width per MeasureBatch),
// so the number is directly comparable to BenchmarkDispatchLoopback: the
// delta over BenchmarkDispatchInProcess is the per-trial transport
// overhead, which batching must amortize.
func BenchmarkDispatchBatch16(b *testing.B) {
	_, evs := startFleet(b, 1)
	pool, err := dispatch.NewPool(profileOf(b, "fop"), evs...)
	if err != nil {
		b.Fatal(err)
	}
	pool.DisableCache = true
	pool.Batch = 16
	reg := flags.NewRegistry()
	cfgs := make([]*flags.Config, 16)
	const mb = int64(1) << 20
	for i := range cfgs {
		c := flags.NewConfig(reg)
		c.SetInt("MaxHeapSize", (256+64*int64(i))*mb)
		cfgs[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += len(cfgs) {
		for _, m := range pool.MeasureBatch(cfgs, 1) {
			if m.Failed {
				b.Fatalf("measurement failed: %s: %s", m.Failure, m.FailureMessage)
			}
		}
	}
}

// BenchmarkDispatchBatch16Proposal is BenchmarkDispatchBatch16 with each
// of the 16 trials shaped like a hierarchical proposal
// (flagstest.Proposal, shipped as its canonical form of about ten args),
// so rendering, the request body, node-side decoding and parsing are
// priced at the size a real session ships.
// ns/op is per trial.
func BenchmarkDispatchBatch16Proposal(b *testing.B) {
	_, evs := startFleet(b, 1)
	pool, err := dispatch.NewPool(profileOf(b, "fop"), evs...)
	if err != nil {
		b.Fatal(err)
	}
	pool.DisableCache = true
	pool.Batch = 16
	reg := flags.NewRegistry()
	cfgs := make([]*flags.Config, 16)
	for i := range cfgs {
		cfgs[i] = flagstest.Proposal(reg, int64(i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += len(cfgs) {
		for _, m := range pool.MeasureBatch(cfgs, 1) {
			if m.Failed {
				b.Fatalf("measurement failed: %s: %s", m.Failure, m.FailureMessage)
			}
		}
	}
}

// BenchmarkDecodeBatchRequest16 decodes a 16-trial batch body, the
// node's first step per batch, at three arg widths: 10 hand-set args per
// trial (narrow), a hierarchical proposal's canonical form as a session
// ships it (proposal, about ten), and the same proposal with every active
// flag explicit (wide, ~350, flagstest.WideProposal), the width older
// builds sent and nodes still accept up to MaxArgs. ns/op and allocs/op are per batch; allocations
// must not grow with the arg count.
func BenchmarkDecodeBatchRequest16(b *testing.B) {
	reg := flags.NewRegistry()
	narrow := func(i int) *flags.Config {
		c := flags.NewConfig(reg)
		c.SetInt("MaxHeapSize", int64(256+64*i)<<20)
		c.SetBool("UseG1GC", true)
		c.SetBool("UseParallelGC", false)
		c.SetInt("MaxGCPauseMillis", int64(50+i))
		c.SetInt("ParallelGCThreads", 4)
		c.SetInt("CICompilerCount", 3)
		c.SetBool("TieredCompilation", true)
		c.SetInt("SurvivorRatio", 6)
		c.SetInt("NewRatio", 3)
		c.SetInt("CompileThreshold", 2500)
		return c
	}
	proposal := func(i int) *flags.Config { return flagstest.Proposal(reg, int64(i+1)) }
	wide := func(i int) *flags.Config { return flagstest.WideProposal(reg, int64(i+1)) }
	explicit := (*flags.Config).ExplicitArgs
	for _, shape := range []struct {
		name string
		cfg  func(int) *flags.Config
		args func(*flags.Config) []string
	}{{"narrow", narrow, explicit}, {"proposal", proposal, explicit}, {"wide", wide, flagstest.WideArgs}} {
		req := &dispatch.BatchRequest{Trials: make([]dispatch.TrialRequest, 16)}
		for i := range req.Trials {
			c := shape.cfg(i)
			req.Trials[i] = dispatch.TrialRequest{
				Key: c.Key(), Benchmark: "h2", Args: shape.args(c),
				RepBase: 40 * i, Reps: 1, TimeoutSeconds: 120, Noise: -1,
			}
		}
		body, err := dispatch.EncodeBatchRequest(req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := dispatch.DecodeBatchRequest(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDispatchWire16 prices the wire alone: one round trip of a
// 16-trial batch of hierarchical proposals (flagstest.Proposal) at 3
// reps, its request encoded and decoded and its answer encoded and
// decoded, with no socket and no evaluation. ns/op and allocs/op are per
// batch.
func BenchmarkDispatchWire16(b *testing.B) {
	prof := profileOf(b, "fop")
	reg := flags.NewRegistry()
	req := &dispatch.BatchRequest{Trials: make([]dispatch.TrialRequest, 16)}
	for i := range req.Trials {
		c := flagstest.Proposal(reg, int64(i+1))
		req.Trials[i] = dispatch.TrialRequest{
			Key: c.Key(), Benchmark: prof.Name, Args: c.ExplicitArgs(),
			RepBase: 40 * i, Reps: 3, TimeoutSeconds: 120, Noise: -1,
		}
	}
	res := dispatch.EvalBatch(prof, reg, req)
	res.Node = "bench0"
	for i := range res.Entries {
		if res.Entries[i].Result == nil {
			b.Fatalf("trial %d: %+v", i, res.Entries[i].Error)
		}
		res.Entries[i].Result.Node = res.Node
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body, err := dispatch.EncodeBatchRequest(req)
		if err != nil {
			b.Fatal(err)
		}
		got, err := dispatch.DecodeBatchRequest(body)
		if err != nil {
			b.Fatal(err)
		}
		if body, err = dispatch.EncodeBatchResult(res, got); err != nil {
			b.Fatal(err)
		}
		if _, err := dispatch.DecodeBatchResult(body, req); err != nil {
			b.Fatal(err)
		}
	}
}
