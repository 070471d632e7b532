package faultinject

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// fakeRunner is a controllable inner runner.
type fakeRunner struct {
	profile *workload.Profile
	measure func(cfg *flags.Config, reps int) runner.Measurement

	mu      sync.Mutex
	calls   int
	elapsed float64
}

func newFake(measure func(cfg *flags.Config, reps int) runner.Measurement) *fakeRunner {
	p, _ := workload.ByName("fop")
	return &fakeRunner{profile: p, measure: measure}
}

func okRun(cfg *flags.Config, _ int) runner.Measurement {
	return runner.Measurement{
		Key: cfg.Key(), Walls: []float64{2}, Mean: 2,
		Pauses: []float64{0.1}, MeanPause: 0.1,
		CostSeconds: 2 + runner.LaunchOverheadSeconds,
	}
}

func (f *fakeRunner) Measure(cfg *flags.Config, reps int) runner.Measurement {
	m := f.measure(cfg, reps)
	f.mu.Lock()
	f.calls++
	f.elapsed += m.CostSeconds
	f.mu.Unlock()
	return m
}

func (f *fakeRunner) Workload() *workload.Profile { return f.profile }

func (f *fakeRunner) Elapsed() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.elapsed
}

func (f *fakeRunner) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func testConfig() *flags.Config { return flags.NewConfig(flags.NewRegistry()) }

func TestChaosInjectsAndRetriesToSuccess(t *testing.T) {
	inner := newFake(okRun)
	// Every attempt wants to fail, but the streak cap (2) guarantees the
	// third attempt runs clean.
	ch := New(inner, Plan{Launch: 1, MaxConsecutive: 2}, 1)
	ch.Retry = runner.RetryPolicy{MaxAttempts: 3}

	m := ch.Measure(testConfig(), 1)
	if m.Failed {
		t.Fatalf("streak cap should have let a clean attempt through: %+v", m)
	}
	if m.Flakes != 2 || m.Attempts != 3 || m.Transient {
		t.Errorf("flake accounting wrong: %+v", m)
	}
	// 2 injected launch failures + 2s and 4s backoff + the real run.
	want := 2*runner.LaunchOverheadSeconds + 6 + 2 + runner.LaunchOverheadSeconds
	if math.Abs(m.CostSeconds-want) > 1e-9 {
		t.Errorf("cost = %g, want %g", m.CostSeconds, want)
	}
	if inner.Calls() != 1 {
		t.Errorf("inner runner should have run exactly once, ran %d times", inner.Calls())
	}
	st := ch.Stats()
	if st.Launch != 2 || st.Attempts != 3 || st.Suppressed != 1 {
		t.Errorf("stats wrong: %+v", st)
	}
	if math.Abs(ch.Elapsed()-m.CostSeconds) > 1e-6 {
		t.Errorf("chaos elapsed = %g, want %g", ch.Elapsed(), m.CostSeconds)
	}
}

func TestChaosRetryBudgetOutlastsStreak(t *testing.T) {
	inner := newFake(okRun)
	// MaxAttempts 1 would normally fail the first flake outright; the
	// chaos layer widens it past the streak cap so a transient-only config
	// can never be condemned.
	ch := New(inner, Plan{Launch: 1, MaxConsecutive: 3}, 1)
	ch.Retry = runner.RetryPolicy{MaxAttempts: 1}
	m := ch.Measure(testConfig(), 1)
	if m.Failed {
		t.Fatalf("transient-only config must not end up failed: %+v", m)
	}
	if m.Attempts != 4 || m.Flakes != 3 {
		t.Errorf("expected 3 flakes then success: %+v", m)
	}
}

func TestChaosSettledKeysAreLeftAlone(t *testing.T) {
	inner := newFake(okRun)
	ch := New(inner, Plan{Launch: 1, MaxConsecutive: 1}, 1)
	first := ch.Measure(testConfig(), 1)
	if first.Failed {
		t.Fatalf("first measurement should settle: %+v", first)
	}
	stats := ch.Stats()

	// The key has a definitive verdict; replays bypass injection entirely
	// (a cache replay involves no launch to sabotage).
	second := ch.Measure(testConfig(), 1)
	if second.Failed || second.Flakes != 0 {
		t.Errorf("settled key was sabotaged: %+v", second)
	}
	if got := ch.Stats(); got != stats {
		t.Errorf("injection stats moved on a settled key: %+v -> %+v", stats, got)
	}
}

func TestChaosDeterministicFailureSettles(t *testing.T) {
	inner := newFake(func(cfg *flags.Config, _ int) runner.Measurement {
		return runner.Measurement{
			Key: cfg.Key(), Failed: true, Failure: jvmsim.OOMFailure,
			FailureMessage: "OutOfMemoryError", CostSeconds: 1,
		}
	})
	// No faults scheduled for this seed/key on attempt 0 is not guaranteed,
	// so use a plan whose only fault is a spike: spikes pass failures through.
	ch := New(inner, Plan{Spike: 1}, 1)
	m := ch.Measure(testConfig(), 1)
	if !m.Failed || m.Failure != jvmsim.OOMFailure || m.Transient {
		t.Fatalf("deterministic failure must pass through untouched: %+v", m)
	}
	if m.Flakes != 0 || inner.Calls() != 1 {
		t.Error("deterministic failures must not be retried")
	}
	// The verdict settles the key: no further injection.
	ch.Measure(testConfig(), 1)
	if inner.Calls() != 2 {
		t.Error("settled key should go straight to the inner runner")
	}
}

func TestChaosHangBlocksUntilRealDeadline(t *testing.T) {
	inner := newFake(okRun)
	ch := New(inner, Plan{Hang: 1, MaxConsecutive: 1, HangSeconds: 120}, 1)
	ch.Retry = runner.RetryPolicy{MaxAttempts: 2}
	ch.HangDeadline = 10 * time.Millisecond

	start := time.Now()
	m := ch.Measure(testConfig(), 1)
	if wait := time.Since(start); wait < 10*time.Millisecond {
		t.Errorf("an injected hang must really block until the deadline (blocked %s)", wait)
	}
	if m.Failed {
		t.Fatalf("hang then clean attempt should succeed: %+v", m)
	}
	if m.Flakes != 1 {
		t.Errorf("the killed hang is one flake: %+v", m)
	}
	// The hang charges its virtual cost, the 2s backoff, and the clean run.
	want := 120 + runner.LaunchOverheadSeconds + 2 + 2 + runner.LaunchOverheadSeconds
	if math.Abs(m.CostSeconds-want) > 1e-9 {
		t.Errorf("cost = %g, want %g", m.CostSeconds, want)
	}
}

func TestChaosLatencySpike(t *testing.T) {
	inner := newFake(okRun)
	ch := New(inner, Plan{Spike: 1, SpikeFactor: 3}, 1)
	m := ch.Measure(testConfig(), 1)
	if m.Failed || m.Flakes != 0 {
		t.Fatalf("a spike is a slowdown, not a failure: %+v", m)
	}
	if m.Mean != 6 || m.Walls[0] != 6 || math.Abs(m.MeanPause-0.3) > 1e-12 {
		t.Errorf("spike should scale walls and pauses 3x: %+v", m)
	}
	if want := (2 + runner.LaunchOverheadSeconds) * 3; math.Abs(m.CostSeconds-want) > 1e-9 {
		t.Errorf("spiked cost = %g, want %g", m.CostSeconds, want)
	}
}

func TestChaosStraggleStallsDeliveryOnly(t *testing.T) {
	inner := newFake(okRun)
	ch := New(inner, Plan{Straggle: 1, StraggleFactor: 16}, 1)
	m := ch.Measure(testConfig(), 1)
	if m.Failed || m.Flakes != 0 {
		t.Fatalf("a straggler is a stalled delivery, not a failure: %+v", m)
	}
	// The run itself is clean: walls and score untouched.
	if m.Mean != 2 || m.Walls[0] != 2 {
		t.Errorf("straggle must not touch the measured walls: %+v", m)
	}
	clean := 2 + runner.LaunchOverheadSeconds
	if math.Abs(m.CostSeconds-clean*16) > 1e-9 {
		t.Errorf("straggled cost = %g, want %g", m.CostSeconds, clean*16)
	}
	// The clean cost rides along so the watchdog can price a hedged
	// duplicate dispatch.
	if math.Abs(m.HedgeCostSeconds-clean) > 1e-9 {
		t.Errorf("HedgeCostSeconds = %g, want clean cost %g", m.HedgeCostSeconds, clean)
	}
	if ch.Stats().Straggle != 1 {
		t.Errorf("straggle not counted: %+v", ch.Stats())
	}
}

func TestChaosCorruptAndCrashFaults(t *testing.T) {
	for _, tc := range []struct {
		plan Plan
		kind jvmsim.FailureKind
	}{
		{Plan{Corrupt: 1, MaxConsecutive: 1, CrashSeconds: 7}, runner.CorruptReportFailure},
		{Plan{Crash: 1, MaxConsecutive: 1, CrashSeconds: 7}, runner.InjectedCrashFailure},
	} {
		inner := newFake(okRun)
		ch := New(inner, tc.plan, 1)
		ch.Retry = runner.RetryPolicy{MaxAttempts: 2}
		m := ch.Measure(testConfig(), 1)
		if m.Failed || m.Flakes != 1 {
			t.Fatalf("%s: expected one absorbed flake: %+v", tc.kind, m)
		}
		// The fault, the 2s backoff, and the clean run.
		want := 7 + runner.LaunchOverheadSeconds + 2 + 2 + runner.LaunchOverheadSeconds
		if math.Abs(m.CostSeconds-want) > 1e-9 {
			t.Errorf("%s: cost = %g, want %g", tc.kind, m.CostSeconds, want)
		}
	}
}

func TestChaosInactivePlanIsTransparent(t *testing.T) {
	inner := newFake(okRun)
	ch := New(inner, Plan{}, 1)
	m := ch.Measure(testConfig(), 2)
	if m.Failed || m.Flakes != 0 || ch.Stats().Attempts != 0 {
		t.Errorf("inactive plan must be a pass-through: %+v stats=%+v", m, ch.Stats())
	}
	if math.Abs(m.CostSeconds-ch.Elapsed()) > 1e-6 {
		t.Errorf("elapsed should still track costs: %g vs %g", ch.Elapsed(), m.CostSeconds)
	}
}

func TestChaosTransientExhaustionNotSettled(t *testing.T) {
	// The inner runner itself flakes forever (a genuinely sick farm —
	// something the streak cap cannot save us from).
	inner := newFake(func(cfg *flags.Config, _ int) runner.Measurement {
		return runner.Measurement{
			Key: cfg.Key(), Failed: true, Failure: runner.LaunchFlakeFailure,
			CostSeconds: runner.LaunchOverheadSeconds,
		}
	})
	ch := New(inner, Plan{Spike: 0.1}, 1)
	ch.Retry = runner.RetryPolicy{MaxAttempts: 2}
	m := ch.Measure(testConfig(), 1)
	if !m.Failed || !m.Transient {
		t.Fatalf("expected transient exhaustion: %+v", m)
	}
	before := inner.Calls()
	// Not settled: a re-proposal attempts again.
	ch.Measure(testConfig(), 1)
	if inner.Calls() == before {
		t.Error("transient exhaustion must not settle the key")
	}
}

func TestChaosScheduleIsSeedDeterministic(t *testing.T) {
	run := func(seed int64) (runner.Measurement, Stats) {
		inner := newFake(okRun)
		ch := New(inner, Plan{Launch: 0.4, Corrupt: 0.2, Spike: 0.2, MaxConsecutive: 2}, seed)
		ch.Retry = runner.RetryPolicy{MaxAttempts: 4}
		var last runner.Measurement
		for i := 0; i < 8; i++ {
			cfg := testConfig()
			cfg.SetInt("MaxHeapSize", int64(i+1)<<26)
			last = ch.Measure(cfg, 1)
		}
		return last, ch.Stats()
	}
	m1, s1 := run(99)
	m2, s2 := run(99)
	if s1 != s2 {
		t.Errorf("same seed, different injections: %+v vs %+v", s1, s2)
	}
	if m1.CostSeconds != m2.CostSeconds || m1.Flakes != m2.Flakes {
		t.Errorf("same seed, different measurements: %+v vs %+v", m1, m2)
	}
	if _, s3 := run(100); s1 == s3 {
		t.Error("different seeds should (overwhelmingly) schedule different faults")
	}
}

// Regression: a spike scales copies of the walls and pauses. The inner
// runner has just cached the clean measurement, whose slices the spiked
// one shares, and scaling those in place left the cache holding spiked
// walls under a clean Mean — a measurement inconsistent with itself,
// replayed to the next proposal and persisted in checkpoints.
func TestChaosSpikeLeavesInnerCacheClean(t *testing.T) {
	p, _ := workload.ByName("fop")
	ip := runner.NewInProcess(jvmsim.New(), p)
	ch := New(ip, Plan{Spike: 1, SpikeFactor: 3}, 1)
	cfg := testConfig()
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}

	spiked := ch.Measure(cfg, 2)
	if spiked.Failed || spiked.FromCache {
		t.Fatalf("want a fresh spiked measurement, got %+v", spiked)
	}
	if math.Abs(mean(spiked.Walls)-spiked.Mean) > 1e-9 {
		t.Errorf("spiked walls %v average to %g, not their Mean %g", spiked.Walls, mean(spiked.Walls), spiked.Mean)
	}
	cached, ok := ip.Cached(cfg.Key(), 2)
	if !ok {
		t.Fatal("inner runner did not cache the measurement")
	}
	replay := ch.Measure(cfg, 2)
	if !replay.FromCache {
		t.Fatalf("a settled key must replay from the inner cache, got %+v", replay)
	}
	for name, m := range map[string]runner.Measurement{"cached": cached, "replay": replay} {
		if math.Abs(mean(m.Walls)-m.Mean) > 1e-9 {
			t.Errorf("%s walls %v average to %g, not their Mean %g", name, m.Walls, mean(m.Walls), m.Mean)
		}
		if math.Abs(m.Mean*3-spiked.Mean) > 1e-9 {
			t.Errorf("%s Mean %g, want the clean %g", name, m.Mean, spiked.Mean/3)
		}
	}
}
