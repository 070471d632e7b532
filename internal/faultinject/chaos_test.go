package faultinject

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// fakeRunner is a controllable runner built on a harness, as every runner
// a chaos handle serves is: measure is its attempt body, and cache says
// whether the harness memoizes definitive verdicts, as the production
// runners do.
type fakeRunner struct {
	runner.Harness
	profile *workload.Profile
	measure func(cfg *flags.Config, reps int) runner.Measurement
	cache   bool

	mu    sync.Mutex
	calls int
}

func newFake(measure func(cfg *flags.Config, reps int) runner.Measurement) *fakeRunner {
	p, _ := workload.ByName("fop")
	return &fakeRunner{profile: p, measure: measure, cache: true}
}

func okRun(cfg *flags.Config, _ int) runner.Measurement {
	return runner.Measurement{
		Key: cfg.Key(), Walls: []float64{2}, Mean: 2,
		Pauses: []float64{0.1}, MeanPause: 0.1,
		CostSeconds: 2 + runner.LaunchOverheadSeconds,
	}
}

func (f *fakeRunner) Measure(cfg *flags.Config, reps int) runner.Measurement {
	return f.Run(cfg, reps, 0, f.cache, func(_, reps int) runner.Measurement {
		f.mu.Lock()
		f.calls++
		f.mu.Unlock()
		return f.measure(cfg, reps)
	})
}

func (f *fakeRunner) Workload() *workload.Profile { return f.profile }

func (f *fakeRunner) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// launches snapshots the harness's state and folds the launch counters
// out of the stream.
func launches(t *testing.T, ch *ChaosRunner) map[string]int {
	t.Helper()
	stream, err := ch.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	return launchesIn(t, stream)
}

// launchesIn folds the launch counters out of a state stream.
func launchesIn(t *testing.T, stream []byte) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, seg := range segments(t, stream) {
		if raw, ok := seg["attempts"]; ok {
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
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
	ch.Telemetry = telemetry.New()
	first := ch.Measure(testConfig(), 1)
	if first.Failed {
		t.Fatalf("first measurement should settle: %+v", first)
	}
	before := ch.Telemetry.Snapshot()

	// The harness's cache answers the key; replays bypass injection
	// entirely (a cache replay involves no launch to sabotage).
	second := ch.Measure(testConfig(), 1)
	if second.Failed || second.Flakes != 0 || !second.FromCache {
		t.Errorf("settled key was sabotaged: %+v", second)
	}
	after := ch.Telemetry.Snapshot()
	for _, name := range []string{`chaos_faults_total{kind="launch"}`, "chaos_suppressed_total", "runner_attempts_total"} {
		if after[name] != before[name] {
			t.Errorf("%s moved on a settled key: %g -> %g", name, before[name], after[name])
		}
	}
	if inner.Calls() != 1 {
		t.Errorf("a settled key must replay from the cache, the body ran %d times", inner.Calls())
	}
}

// A runner that keeps no cache answers nothing, so nothing is settled:
// each re-measurement is a fresh launch that draws the key's next
// attempts from the schedule.
func TestChaosWithoutInnerCacheSettlesNothing(t *testing.T) {
	inner := newFake(okRun)
	inner.cache = false
	ch := New(inner, Plan{Launch: 1, MaxConsecutive: 1}, 1)
	for i := 1; i <= 2; i++ {
		m := ch.Measure(testConfig(), 1)
		if m.Failed || m.Flakes != 1 || m.FromCache {
			t.Fatalf("measurement %d: want one absorbed flake, then a fresh run: %+v", i, m)
		}
		if inner.Calls() != i {
			t.Errorf("measurement %d: the body ran %d times", i, inner.Calls())
		}
	}
	if n := launches(t, ch)[testConfig().Key()]; n != 4 {
		t.Errorf("two measurements of two attempts each left the counter at %d", n)
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
	// The verdict settles the key: the replay is the cache's, with no
	// further injection and no attempt.
	if again := ch.Measure(testConfig(), 1); !again.FromCache || again.Failure != jvmsim.OOMFailure {
		t.Errorf("a condemned key must replay its verdict from the cache: %+v", again)
	}
	if n := launches(t, ch)[testConfig().Key()]; inner.Calls() != 1 || n != 1 {
		t.Errorf("settled key went past the cache: %d calls, %d attempts", inner.Calls(), n)
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
	ch.Telemetry = telemetry.New()
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
	if n := ch.Telemetry.Snapshot()[`chaos_faults_total{kind="straggle"}`]; n != 1 {
		t.Errorf("straggle counted %g times, want 1", n)
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
	if n := launches(t, ch); m.Failed || m.Flakes != 0 || len(n) != 0 || ch.Faults != nil {
		t.Errorf("inactive plan must be a pass-through: %+v attempts=%v", m, n)
	}
	if math.Abs(m.CostSeconds-ch.Elapsed()) > 1e-6 {
		t.Errorf("elapsed should still track costs: %g vs %g", ch.Elapsed(), m.CostSeconds)
	}
}

func TestChaosTransientExhaustionNotSettled(t *testing.T) {
	// The body itself flakes forever (a genuinely sick farm — something
	// the streak cap cannot save us from).
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
	run := func(seed int64) (runner.Measurement, map[string]float64) {
		inner := newFake(okRun)
		ch := New(inner, Plan{Launch: 0.4, Corrupt: 0.2, Spike: 0.2, MaxConsecutive: 2}, seed)
		ch.Retry = runner.RetryPolicy{MaxAttempts: 4}
		ch.Telemetry = telemetry.New()
		var last runner.Measurement
		for i := 0; i < 8; i++ {
			cfg := testConfig()
			cfg.SetInt("MaxHeapSize", int64(i+1)<<26)
			last = ch.Measure(cfg, 1)
		}
		return last, ch.Telemetry.Snapshot()
	}
	m1, s1 := run(99)
	m2, s2 := run(99)
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("same seed, different injections: %+v vs %+v", s1, s2)
	}
	if m1.CostSeconds != m2.CostSeconds || m1.Flakes != m2.Flakes {
		t.Errorf("same seed, different measurements: %+v vs %+v", m1, m2)
	}
	if _, s3 := run(100); reflect.DeepEqual(s1, s3) {
		t.Error("different seeds should (overwhelmingly) schedule different faults")
	}
}

// Regression: a spike scales copies of the walls and pauses. The cache
// keeps the body's clean measurement, whose slices the spiked one shares,
// and scaling those in place left the cache holding spiked walls under a
// clean Mean — a measurement inconsistent with itself, replayed to the
// next proposal and persisted in checkpoints.
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
		t.Fatal("the harness did not cache the measurement")
	}
	replay := ch.Measure(cfg, 2)
	if !replay.FromCache {
		t.Fatalf("a settled key must replay from the cache, got %+v", replay)
	}
	for name, m := range map[string]runner.Measurement{"cached": cached, "replay": replay} {
		if math.Abs(mean(m.Walls)-m.Mean) > 1e-9 {
			t.Errorf("%s walls %v average to %g, not their Mean %g", name, m.Walls, mean(m.Walls), m.Mean)
		}
		if math.Abs(m.Mean*3-spiked.Mean) > 1e-9 {
			t.Errorf("%s Mean %g, want the clean %g", name, m.Mean, spiked.Mean/3)
		}
		// The memo is the clean attempt's own: one attempt, its own cost.
		if m.Attempts != 1 || m.Flakes != 0 || m.HedgeCostSeconds != 0 {
			t.Errorf("%s carries %d attempts, %d flakes, hedge cost %g; want the clean attempt's own tally",
				name, m.Attempts, m.Flakes, m.HedgeCostSeconds)
		}
	}
}

// The cache memoizes the clean attempt with its own one-attempt tally,
// never the tally summed over the injected failures before it: a replay
// reads as one attempt, as a replay of a fault-free measurement does.
func TestChaosCacheKeepsOwnTally(t *testing.T) {
	inner := newFake(okRun)
	ch := New(inner, Plan{Launch: 1, MaxConsecutive: 2}, 1)
	first := ch.Measure(testConfig(), 1)
	if first.Attempts != 3 || first.Flakes != 2 {
		t.Fatalf("want two flakes then a clean run: %+v", first)
	}
	replay := ch.Measure(testConfig(), 1)
	if !replay.FromCache || replay.Attempts != 1 || replay.Flakes != 0 {
		t.Errorf("replay carries %d attempts and %d flakes, want the clean attempt's 1 and 0: %+v",
			replay.Attempts, replay.Flakes, replay)
	}
	if want := first.CostSeconds; math.Abs(ch.Elapsed()-want) > 1e-6 {
		t.Errorf("clock = %g, want the measurement's whole cost %g", ch.Elapsed(), want)
	}
}

// The streak a measurement opens with is derived from the schedule. It
// must equal the streak a counter kept attempt by attempt would hold:
// a clean draw resets it, a failure draw extends it, and a failure draw
// at the cap is suppressed and resets it.
func TestStreakMatchesTrackedStreak(t *testing.T) {
	for _, plan := range []Plan{
		{Launch: 0.5},
		{Launch: 0.3, Crash: 0.3, Spike: 0.2, MaxConsecutive: 1},
		{Corrupt: 0.45, Hang: 0.45, Straggle: 0.1, MaxConsecutive: 4},
		{Launch: 1, MaxConsecutive: 3},
		{Launch: 0.25, Corrupt: 0.25, Crash: 0.25, Hang: 0.25},
		{Spike: 1},
	} {
		ch := New(newFake(okRun), plan, 11)
		for i := 0; i < 4; i++ {
			cfg := testConfig()
			cfg.SetInt("MaxHeapSize", int64(i+1)<<26)
			sk := cfg.Key()
			tracked := 0
			for n := 0; n < 300; n++ {
				if got := ch.streakBefore(sk, n); got != tracked {
					t.Fatalf("plan %v, key %s: streak before attempt %d = %d, a tracked counter holds %d",
						plan, sk, n, got, tracked)
				}
				switch {
				case !isFailureFault(ch.faultFor(sk, n)):
					tracked = 0
				case tracked >= ch.plan.MaxConsecutive:
					tracked = 0
				default:
					tracked++
				}
			}
		}
	}
}

// A plan whose failure kinds sum to 1 fails every draw, so a streak is the
// attempt count modulo the cap and needs no walk back: a key restored at
// 2^40 attempts measures at once.
func TestHugeAttemptCountMeasuresPromptly(t *testing.T) {
	ch := New(newFake(okRun), Plan{Launch: 1}, 1)
	if !ch.alwaysFails {
		t.Fatal("launch=1 fails every draw")
	}
	key := testConfig().Key()
	if err := ch.RestoreState([]byte(`{"elapsed":0,"attempts":{"` + key + `":1099511627776}}`)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	m := ch.Measure(testConfig(), 1)
	if wait := time.Since(start); wait > time.Second {
		t.Errorf("measuring took %s", wait)
	}
	// 2^40 mod 3 = 1: the key opens one failure into its streak, so one
	// more injected failure reaches the cap of 2 and the next is clean.
	if m.Failed || m.Flakes != 1 || m.Attempts != 2 {
		t.Errorf("want one flake then a clean run: %+v", m)
	}
	if n := launches(t, ch)[key]; n != 1<<40+2 {
		t.Errorf("attempt counter = %d, want 2^40+2", n)
	}
}

// A transient failure of the body — placement exhaustion on a dead fleet,
// a real launch flake — is retried by the one loop, which also numbers it
// as a launch: the retries stop at the policy's attempts, not at the
// policy's attempts times the body's own.
func TestBodyTransientFailureRetriedByOneLoop(t *testing.T) {
	inner := newFake(func(cfg *flags.Config, _ int) runner.Measurement {
		return runner.Measurement{
			Key: cfg.Key(), Failed: true, Failure: runner.NodeDownFailure,
		}
	})
	ch := New(inner, Plan{Spike: 0.5}, 1)
	ch.Retry = runner.RetryPolicy{MaxAttempts: 3}
	m := ch.Measure(testConfig(), 1)
	if !m.Transient || m.Attempts != 3 {
		t.Fatalf("want transient exhaustion after 3 attempts: %+v", m)
	}
	if inner.Calls() != 3 {
		t.Errorf("the body ran %d times, want 3", inner.Calls())
	}
	if n := launches(t, ch)[testConfig().Key()]; n != 3 {
		t.Errorf("launch counter = %d, want 3", n)
	}
}

// batchingFake is a fakeRunner that also measures whole rounds, as the
// dispatch pool does: each retry round is one call of place.
type batchingFake struct {
	*fakeRunner
	waves int
}

func (f *batchingFake) MeasureBatch(cfgs []*flags.Config, reps int) []runner.Measurement {
	return f.RunBatch(cfgs, reps, 0, f.cache, func(round []*runner.Attempt) {
		f.waves++
		for _, a := range round {
			a.M = f.measure(a.Cfg, a.Reps)
		}
	})
}

// The handle keeps the chaos identity whichever runner it measures
// through, batches exactly when the inner runner does, and follows phase
// shifts only through an inner runner that can.
func TestChaosHandleIdentityBatchingAndPhase(t *testing.T) {
	plan := Plan{Launch: 1, MaxConsecutive: 2}
	want := "*faultinject.ChaosRunner(" + plan.String() + ")"

	plain := New(newFake(okRun), plan, 1)
	if _, ok := plain.Runner().(runner.BatchMeasurer); ok || plain.Runner() != runner.Runner(plain) {
		t.Error("over a runner that does not batch, the handle is the session's runner")
	}
	if err := plain.SetPhase(1, jvmsim.PhaseShift{}); err == nil {
		t.Error("a phase shift through a runner without phases must fail")
	}

	inner := &batchingFake{fakeRunner: newFake(okRun)}
	ch := New(inner, plan, 1)
	bm, ok := ch.Runner().(runner.BatchMeasurer)
	if !ok {
		t.Fatal("over a batching runner, the session's runner must batch")
	}
	for _, r := range []runner.Runner{plain, ch, ch.Runner()} {
		if got := r.(interface{ DeterminismFingerprint() string }).DeterminismFingerprint(); got != want {
			t.Errorf("fingerprint %q, want %q", got, want)
		}
	}
	cfgs := make([]*flags.Config, 3)
	for i := range cfgs {
		cfgs[i] = testConfig()
		cfgs[i].SetInt("MaxHeapSize", int64(i+1)<<28)
	}
	// Every trial fails twice by injection, then runs clean: three waves,
	// and only the last one reaches the body.
	for i, m := range bm.MeasureBatch(cfgs, 1) {
		if m.Failed || m.Attempts != 3 || m.Flakes != 2 {
			t.Errorf("trial %d: want two flakes then a clean run: %+v", i, m)
		}
	}
	if inner.waves != 1 || inner.Calls() != 0 {
		t.Errorf("the body saw %d waves, want 1", inner.waves)
	}

	p, _ := workload.ByName("fop")
	ip := runner.NewInProcess(jvmsim.New(), p)
	shifted := New(ip, plan, 1)
	cfg := testConfig()
	shifted.Measure(cfg, 1)
	if err := shifted.SetPhase(1, jvmsim.DefaultShift()); err != nil {
		t.Fatal(err)
	}
	if m := shifted.Measure(cfg, 1); m.FromCache || m.Attempts != 3 {
		t.Errorf("after a shift the key is measured afresh, from its own launch counter: %+v", m)
	}
	if n := launches(t, shifted); n[cfg.Key()] != 3 || n[runner.PhaseKey(1, cfg.Key())] != 3 {
		t.Errorf("launch counters %v, want 3 per phase", n)
	}
}
