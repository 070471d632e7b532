package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/flags"
	"repro/internal/hierarchy"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func TestHedgerDeadline(t *testing.T) {
	h := newHedger()
	if _, armed := h.deadline(); armed {
		t.Fatal("watchdog armed with no samples")
	}
	for i := 1; i <= 7; i++ {
		h.observe(float64(i))
	}
	if _, armed := h.deadline(); armed {
		t.Fatal("watchdog armed with 7 samples; it needs 8")
	}
	for i := 8; i <= 10; i++ {
		h.observe(float64(i))
	}
	d, armed := h.deadline()
	if !armed {
		t.Fatal("watchdog not armed after 10 samples")
	}
	// p90 of 1..10 via ceil-rank is the 9th order statistic: 9. ×3 = 27.
	if d != 27 {
		t.Fatalf("deadline = %g, want 27", d)
	}

	// The 1-second floor guards against a streak of near-zero costs.
	cheap := newHedger()
	for i := 0; i < 8; i++ {
		cheap.observe(0.01)
	}
	if d, _ := cheap.deadline(); d != 1 {
		t.Fatalf("floored deadline = %g, want 1", d)
	}

	// Zero and negative costs (synthetic rejections) never enter the window.
	h2 := newHedger()
	for i := 0; i < 7; i++ {
		h2.observe(1)
	}
	h2.observe(0)
	h2.observe(-1)
	if _, armed := h2.deadline(); armed {
		t.Fatal("zero-cost observations armed the watchdog")
	}
}

// TestHedgerSortedWindowMatchesSort: the sorted copy the hedger keeps
// beside its ring equals copying the ring and sorting it with
// sort.Float64s after every observation, over random windows with many
// ties, costs the window refuses (zero, negative) and ones nothing
// upstream refuses (+Inf, NaN, which sort.Float64s puts first); and the
// deadline equals the one read from that sort.
func TestHedgerSortedWindowMatchesSort(t *testing.T) {
	same := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHedger()
		for step := 0; step < 600; step++ {
			var cost float64
			switch r := rng.Intn(100); {
			case r < 2:
				cost = math.NaN()
			case r < 4:
				cost = math.Inf(1)
			case r < 8:
				cost = -rng.Float64() * float64(rng.Intn(2))
			case r < 60:
				cost = float64(1 + rng.Intn(6)) // ties
			default:
				cost = rng.ExpFloat64() * 20
			}
			h.observe(cost)
			want := slices.Clone(h.costs)
			sort.Float64s(want)
			if !slices.EqualFunc(h.sorted, want, same) {
				t.Fatalf("seed %d, step %d (cost %v):\n  sorted %v\n  want   %v", seed, step, cost, h.sorted, want)
			}
			got, armed := h.deadline()
			if wantArmed := len(want) >= hedgeMinSamples; armed != wantArmed {
				t.Fatalf("seed %d, step %d: armed %v with %d costs", seed, step, armed, len(want))
			}
			if !armed {
				continue
			}
			idx := min(max(int(math.Ceil(hedgePercentile*float64(len(want))))-1, 0), len(want)-1)
			d := want[idx] * hedgeFactor
			if d < hedgeMinSeconds {
				d = hedgeMinSeconds
			}
			if !same(got, d) {
				t.Fatalf("seed %d, step %d: deadline %v, copy-and-sort %v", seed, step, got, d)
			}
		}
	}
}

func TestHedgerDecide(t *testing.T) {
	h := newHedger()
	for i := 0; i < 8; i++ {
		h.observe(10) // deadline = 30
	}

	if eff, v := h.decide(runner.Measurement{CostSeconds: 12}); eff != 12 || v != "" {
		t.Fatalf("fast trial hedged: eff=%g verdict=%q", eff, v)
	}
	// Straggler with a clean duplicate cost: the hedge dispatched at 30
	// finishes at 30+10=40, beating the 400-second primary.
	if eff, v := h.decide(runner.Measurement{CostSeconds: 400, HedgeCostSeconds: 10}); eff != 40 || v != "hedge-won" {
		t.Fatalf("straggler: eff=%g verdict=%q, want 40/hedge-won", eff, v)
	}
	// A genuinely slow config runs just as slowly re-dispatched: hedging
	// 35 at deadline 30 finishes at 65 — the primary keeps its cost.
	if eff, v := h.decide(runner.Measurement{CostSeconds: 35}); eff != 35 || v != "primary-won" {
		t.Fatalf("slow config: eff=%g verdict=%q, want 35/primary-won", eff, v)
	}
	// Cache replays are free and never hedged.
	if eff, v := h.decide(runner.Measurement{CostSeconds: 500, FromCache: true}); eff != 500 || v != "" {
		t.Fatalf("cache replay hedged: eff=%g verdict=%q", eff, v)
	}
	if h.hedges != 2 || h.wins != 1 {
		t.Fatalf("accounting: hedges=%d wins=%d, want 2/1", h.hedges, h.wins)
	}
	if want := 400.0 - 40.0; h.saved != want {
		t.Fatalf("saved=%g, want %g", h.saved, want)
	}
}

// quarantineHarness builds a quarantine over the real flag hierarchy and
// returns configs selecting the serial and G1 collector subtrees.
func quarantineHarness(t *testing.T) (*quarantine, *flags.Config, *flags.Config) {
	t.Helper()
	reg := flags.NewRegistry()
	tree := hierarchy.Build(reg)
	q := newQuarantine(tree, telemetry.New(), nil)

	mk := func(branch string) *flags.Config {
		for _, ch := range tree.Choices() {
			for _, br := range ch.Branches {
				if br.Name == branch {
					c := flags.NewConfig(reg)
					br.Apply(c)
					return c
				}
			}
		}
		t.Fatalf("no branch %q in the tree", branch)
		return nil
	}
	return q, mk("serial"), mk("g1")
}

func TestQuarantineBreakerLifecycle(t *testing.T) {
	q, serial, g1 := quarantineHarness(t)
	detFail := runner.Measurement{Failed: true, Failure: "configuration"}
	ok := runner.Measurement{CostSeconds: 5, Mean: 5}

	// Eight deterministic failures (the minimum sample) open the serial
	// subtree's breaker; seven do not.
	trial := 0
	for i := 0; i < 8; i++ {
		if q.opens != 0 {
			t.Fatalf("breaker opened after %d verdicts; it needs 8", i)
		}
		trial++
		q.observe(serial, serial.Key(), trial, float64(trial), detFail)
	}
	if q.opens != 1 {
		t.Fatalf("opens=%d after 8 det failures", q.opens)
	}
	if label, blocked := q.blocked(serial, serial.Key(), trial+1, 0); !blocked || !strings.Contains(label, "serial") {
		t.Fatalf("serial subtree not blocked: %q/%v", label, blocked)
	}
	// Another subtree of the same choice is unaffected.
	if label, blocked := q.blocked(g1, g1.Key(), trial+1, 0); blocked {
		t.Fatalf("g1 subtree blocked by serial's breaker: %q", label)
	}

	// Past the cooldown the first proposal becomes the half-open probe...
	probeTrial := trial + quarantineCooldownTrials + 1
	if _, blocked := q.blocked(serial, serial.Key(), probeTrial, 0); blocked {
		t.Fatal("probe-eligible proposal still blocked after cooldown")
	}
	// ...and while the probe is in flight, further proposals stay blocked.
	if _, blocked := q.blocked(serial, serial.Key(), probeTrial, 0); !blocked {
		t.Fatal("second proposal admitted while the probe is in flight")
	}
	// A failing probe re-opens with a doubled cooldown.
	q.observe(serial, serial.Key(), probeTrial, 0, detFail)
	if _, blocked := q.blocked(serial, serial.Key(), probeTrial+quarantineCooldownTrials+1, 0); !blocked {
		t.Fatal("reopened breaker honored the original cooldown, not the doubled one")
	}
	probe2 := probeTrial + 2*quarantineCooldownTrials + 1
	if _, blocked := q.blocked(serial, serial.Key(), probe2, 0); blocked {
		t.Fatal("probe not admitted after the doubled cooldown")
	}
	// A succeeding probe closes the breaker entirely.
	q.observe(serial, serial.Key(), probe2, 0, ok)
	if _, blocked := q.blocked(serial, serial.Key(), probe2+1, 0); blocked {
		t.Fatal("breaker still open after a successful probe")
	}

	// Synthetic rejections must never feed the verdict window.
	before := q.state["collector/serial"].count
	q.observe(serial, serial.Key(), probe2+2, 0, syntheticQuarantined(serial.Key(), "collector/serial"))
	if q.state["collector/serial"].count != before {
		t.Fatal("synthetic quarantined measurement entered the breaker window")
	}
}

func TestQuarantineCooldownDoublingCapped(t *testing.T) {
	for i, want := range map[int]int{1: 25, 2: 50, 3: 100, 4: 200, 5: 200, 10: 200} {
		if got := cooldown(i); got != want {
			t.Errorf("cooldown(trips=%d) = %d, want %d", i, got, want)
		}
	}
}

func TestRobustnessFingerprint(t *testing.T) {
	if s := robustnessFingerprint(nil, nil); s != "" {
		t.Errorf("both off should fingerprint empty, got %q", s)
	}
	h, q := &HedgePolicy{}, &QuarantinePolicy{}
	if s := robustnessFingerprint(h, nil); s != "hedge(p0.9×3,w64,min8,floor1)" {
		t.Errorf("hedge fingerprint: %q", s)
	}
	// Checkpoints written with hedging and quarantine carry this literal;
	// it must not move, or they stop resuming.
	if s := robustnessFingerprint(h, q); s != "hedge(p0.9×3,w64,min8,floor1)+quarantine(w16,min8,t0.7,cd25..200)" {
		t.Errorf("combined fingerprint: %q", s)
	}
}

func TestSessionDegradedOnVirtualBudget(t *testing.T) {
	s := newSession(t, "fop", "random", 900, 3)
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || !strings.Contains(out.DegradedReason, "virtual tuning budget") {
		t.Fatalf("budget expiry not degraded: %v %q", out.Degraded, out.DegradedReason)
	}
	if out.Best == nil || out.Trials == 0 {
		t.Fatal("degraded outcome should still carry the best-so-far result")
	}
}

func TestSessionDegradedOnTrialBudget(t *testing.T) {
	s := newSession(t, "fop", "random", 1e9, 3)
	s.MaxTrials = 25
	reg := telemetry.New()
	s.Telemetry = reg
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || !strings.Contains(out.DegradedReason, "trial budget") {
		t.Fatalf("trial-budget expiry not degraded: %v %q", out.Degraded, out.DegradedReason)
	}
	if reg.Snapshot()[`session_degraded_total{reason="trial-budget"}`] != 1 {
		t.Errorf("degraded counter missing: %v", reg.Snapshot())
	}
}

func TestSessionDegradedOnWallClock(t *testing.T) {
	s := newSession(t, "fop", "hierarchical", 1e9, 3)
	s.RealBudget = time.Minute
	// Injected wall clock: each reading jumps an hour, so the deadline has
	// passed by the first loop iteration — deterministically.
	base := time.Unix(0, 0)
	s.now = func() time.Time {
		base = base.Add(time.Hour)
		return base
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || !strings.Contains(out.DegradedReason, "wall-clock") {
		t.Fatalf("wall-clock expiry not degraded: %v %q", out.Degraded, out.DegradedReason)
	}
	if out.Best == nil {
		t.Fatal("degraded outcome lost the baseline best")
	}
}

func TestSessionBestEffortCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := newSession(t, "fop", "random", 1e6, 5)
	s.Ctx = ctx
	s.BestEffort = true
	s.OnProgress = func(tp TracePoint) {
		if tp.Trial >= 10 {
			cancel()
		}
	}
	out, err := s.Run()
	if err != nil {
		t.Fatalf("best-effort cancellation errored: %v", err)
	}
	if !out.Degraded || !strings.Contains(out.DegradedReason, "canceled") {
		t.Fatalf("cancellation not degraded: %v %q", out.Degraded, out.DegradedReason)
	}
	if out.Trials < 10 {
		t.Fatalf("best-so-far lost: %d trials", out.Trials)
	}

	// Without BestEffort, cancellation is still an error (old contract).
	ctx2, cancel2 := context.WithCancel(context.Background())
	s2 := newSession(t, "fop", "random", 1e6, 5)
	s2.Ctx = ctx2
	s2.OnProgress = func(tp TracePoint) {
		if tp.Trial >= 10 {
			cancel2()
		}
	}
	if _, err := s2.Run(); err == nil {
		t.Fatal("cancellation without BestEffort should error")
	}
}

func checkpointKeeper(t *testing.T, path string) *checkpoint.Keeper {
	t.Helper()
	return checkpoint.NewKeeper(path, 1, nil)
}

func loadSnapshot(t *testing.T, path string) *checkpoint.Snapshot {
	t.Helper()
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// chaosSession builds a session measuring through the fault-injection layer.
func chaosSession(t *testing.T, bench, searcher, plan string, budget float64, seed int64, workers int) *Session {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("no workload %s", bench)
	}
	pl, err := faultinject.ParsePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewSearcher(searcher)
	if err != nil {
		t.Fatal(err)
	}
	return &Session{
		Runner:        faultinject.New(runner.NewInProcess(jvmsim.New(), p), pl, seed),
		Searcher:      sr,
		BudgetSeconds: budget,
		Seed:          seed,
		Workers:       workers,
	}
}

// The engine's determinism contract is per (seed, workers) pair — Workers
// is part of the checkpoint fingerprint. The watchdog must preserve it:
// two runs at the same seed and worker count stay byte-identical even with
// hedging steering trial costs.
func TestHedgingDeterministicForFixedSeed(t *testing.T) {
	run := func() (*Outcome, string) {
		s := chaosSession(t, "fop", "hillclimb", "slow-trial", 2500, 11, 4)
		s.Hedge = &HedgePolicy{}
		tr := telemetry.NewTracer(1 << 16)
		s.Trace = tr
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return out, buf.String()
	}
	outA, traceA := run()
	outB, traceB := run()
	if outA.Hedges == 0 {
		t.Fatal("slow-trial scenario never tripped the watchdog; the test is vacuous")
	}
	if outA.Hedges != outB.Hedges || outA.HedgeWins != outB.HedgeWins ||
		outA.BestWall != outB.BestWall || outA.Trials != outB.Trials || outA.Elapsed != outB.Elapsed {
		t.Fatalf("hedged sessions diverge for a fixed seed: {h:%d w:%d best:%v trials:%d} vs {h:%d w:%d best:%v trials:%d}",
			outA.Hedges, outA.HedgeWins, outA.BestWall, outA.Trials,
			outB.Hedges, outB.HedgeWins, outB.BestWall, outB.Trials)
	}
	if traceA != traceB {
		t.Fatal("hedged traces are not byte-identical across runs")
	}
	if !strings.Contains(traceA, `"hedge"`) {
		t.Error("trace carries no hedge events despite hedges > 0")
	}
}

func TestHedgingSavesVirtualTime(t *testing.T) {
	base := chaosSession(t, "fop", "hillclimb", "slow-trial", 2500, 11, 2)
	plain, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	hedged := chaosSession(t, "fop", "hillclimb", "slow-trial", 2500, 11, 2)
	hedged.Hedge = &HedgePolicy{}
	reg := telemetry.New()
	hedged.Telemetry = reg
	out, err := hedged.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Hedging reclaims straggler time: the same budget runs at least as
	// many trials, and the saved-seconds gauge is positive.
	if out.Trials < plain.Trials {
		t.Errorf("hedged session ran fewer trials (%d) than unhedged (%d)", out.Trials, plain.Trials)
	}
	if out.HedgeWins == 0 {
		t.Fatal("no hedge wins under an 8× straggle factor")
	}
	if reg.Snapshot()["session_hedge_saved_virtual_seconds"] <= 0 {
		t.Error("saved-seconds gauge not positive")
	}
}

// vetoRunner deterministically fails every configuration selecting the
// given collector — a hard-broken subtree for the quarantine to find.
type vetoRunner struct {
	prof *workload.Profile
	veto hierarchy.Collector
}

func (r *vetoRunner) Workload() *workload.Profile { return r.prof }
func (r *vetoRunner) Elapsed() float64            { return 0 }

func (r *vetoRunner) Measure(cfg *flags.Config, reps int) runner.Measurement {
	key := cfg.Key()
	if col, err := hierarchy.SelectedCollector(cfg); err == nil && col == r.veto {
		return runner.Measurement{
			Key: key, Failed: true, Failure: "configuration",
			FailureMessage: "veto: " + string(r.veto), CostSeconds: 1,
		}
	}
	cost := 5 + float64(len(key)%5)
	return runner.Measurement{Key: key, Walls: []float64{cost}, Mean: cost, CostSeconds: cost}
}

func TestQuarantineIsolatesBrokenSubtree(t *testing.T) {
	run := func(workers int) *Outcome {
		p, _ := workload.ByName("fop")
		s := &Session{
			Runner:        &vetoRunner{prof: p, veto: hierarchy.G1},
			Searcher:      Random{},
			BudgetSeconds: 4000,
			Seed:          9,
			Workers:       workers,
			Quarantine:    &QuarantinePolicy{},
			Telemetry:     telemetry.New(),
		}
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	out := run(3)
	if out.Quarantined == 0 {
		t.Fatal("breaker never rejected a G1 proposal despite every G1 config failing")
	}
	// Quarantined rejections are accounted separately, not as failures, and
	// cost nothing — the budget still buys real trials.
	if out.Failures == 0 || out.Best == nil {
		t.Fatalf("session accounting broken: failures=%d best=%v", out.Failures, out.Best)
	}
	// Breaker state evolves with delivery order, which is fixed per
	// (seed, workers): a repeat run must quarantine identically.
	again := run(3)
	if out.Quarantined != again.Quarantined || out.Trials != again.Trials ||
		out.BestWall != again.BestWall || out.Elapsed != again.Elapsed {
		t.Fatalf("quarantined sessions diverge for a fixed seed: {q:%d t:%d} vs {q:%d t:%d}",
			out.Quarantined, out.Trials, again.Quarantined, again.Trials)
	}
}

func TestHedgedSessionResumesByteIdentical(t *testing.T) {
	const (
		bench, search = "fop", "hillclimb"
		plan          = "slow-trial"
		budget        = 2000.0
		seed          = int64(11)
		workers       = 2
		killAt        = 6
	)
	mk := func() *Session {
		s := chaosSession(t, bench, search, plan, budget, seed, workers)
		s.Hedge = &HedgePolicy{}
		s.Quarantine = &QuarantinePolicy{}
		return s
	}
	plain := mk()
	uninterrupted, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if uninterrupted.Hedges == 0 {
		t.Fatal("no hedges fired; resume test is vacuous")
	}

	path := t.TempDir() + "/hedged.ckpt"
	killed := mk()
	keeper := checkpointKeeper(t, path)
	killed.Checkpoint = keeper
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed.Ctx = ctx
	killed.OnProgress = func(tp TracePoint) {
		if tp.Trial >= killAt {
			cancel()
		}
	}
	if _, err := killed.Run(); err == nil {
		t.Fatal("session survived the kill")
	}
	if err := keeper.Close(); err != nil {
		t.Fatal(err)
	}

	resumed := mk()
	snap := loadSnapshot(t, path)
	resumed.Resume = snap
	out, err := resumed.Run()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, want := outcomeFingerprint(t, resumed, out), outcomeFingerprint(t, plain, uninterrupted)
	if got != want {
		t.Fatalf("hedged resume diverged:\nresumed:       %s\nuninterrupted: %s", got, want)
	}
	if out.Hedges != uninterrupted.Hedges || out.Quarantined != uninterrupted.Quarantined {
		t.Fatalf("robustness accounting diverged on resume: hedges %d/%d quarantined %d/%d",
			out.Hedges, uninterrupted.Hedges, out.Quarantined, uninterrupted.Quarantined)
	}
}

func TestRobustnessFingerprintGuardsResume(t *testing.T) {
	path := t.TempDir() + "/fp.ckpt"
	s := newSession(t, "fop", "hillclimb", 600, 3)
	s.Hedge = &HedgePolicy{}
	keeper := checkpointKeeper(t, path)
	s.Checkpoint = keeper
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := keeper.Close(); err != nil {
		t.Fatal(err)
	}

	// Resuming without the hedge policy must refuse: the checkpoint was
	// written under different trial-steering semantics.
	plain := newSession(t, "fop", "hillclimb", 600, 3)
	plain.Resume = loadSnapshot(t, path)
	if _, err := plain.Run(); err == nil || !strings.Contains(err.Error(), "robustness") {
		t.Fatalf("fingerprint mismatch not caught: %v", err)
	}
}
