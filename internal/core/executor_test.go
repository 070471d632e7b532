package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/flags"
	"repro/internal/hierarchy"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// overlapRunner measures with a real wall-clock sleep and records how many
// Measure calls were in flight simultaneously — proof the session overlaps
// evaluations on real goroutines, not just in virtual bookkeeping. Virtual
// cost varies by configuration key so completions finish out of order.
type overlapRunner struct {
	prof        *workload.Profile
	inflight    int64
	maxInflight int64

	mu      sync.Mutex
	elapsed float64
}

func (r *overlapRunner) Workload() *workload.Profile { return r.prof }

func (r *overlapRunner) Elapsed() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.elapsed
}

func (r *overlapRunner) Measure(cfg *flags.Config, reps int) runner.Measurement {
	cur := atomic.AddInt64(&r.inflight, 1)
	for {
		max := atomic.LoadInt64(&r.maxInflight)
		if cur <= max || atomic.CompareAndSwapInt64(&r.maxInflight, max, cur) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	atomic.AddInt64(&r.inflight, -1)

	key := cfg.Key()
	cost := 5 + float64(len(key)%7)
	r.mu.Lock()
	r.elapsed += cost
	r.mu.Unlock()
	return runner.Measurement{Key: key, Walls: []float64{cost}, Mean: cost, CostSeconds: cost}
}

func TestMultiWorkerOverlapsEvaluations(t *testing.T) {
	p, _ := workload.ByName("fop")
	r := &overlapRunner{prof: p}
	s := &Session{Runner: r, Searcher: Random{}, BudgetSeconds: 300, Seed: 7, Workers: 4}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials < 8 {
		t.Fatalf("too few trials (%d) to demonstrate overlap", out.Trials)
	}
	if max := atomic.LoadInt64(&r.maxInflight); max < 2 {
		t.Errorf("Workers:4 never overlapped measurements (max in flight %d)", max)
	}
}

func TestMultiWorkerDeterministicForFixedSeed(t *testing.T) {
	for _, searcher := range []string{"hierarchical", "random"} {
		a, err := (newWorkerSession(t, searcher, 4, 42)).Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := (newWorkerSession(t, searcher, 4, 42)).Run()
		if err != nil {
			t.Fatal(err)
		}
		if a.Trials != b.Trials || a.BestWall != b.BestWall || a.Elapsed != b.Elapsed {
			t.Errorf("%s/W=4: summaries differ across identical runs: (%d %.4f %.1f) vs (%d %.4f %.1f)",
				searcher, a.Trials, a.BestWall, a.Elapsed, b.Trials, b.BestWall, b.Elapsed)
		}
		if a.Best.Key() != b.Best.Key() {
			t.Errorf("%s/W=4: winning configs differ across identical runs", searcher)
		}
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Errorf("%s/W=4: convergence traces differ across identical runs", searcher)
		}
	}
}

func newWorkerSession(t *testing.T, searcher string, workers int, seed int64) *Session {
	t.Helper()
	s := newSession(t, "h2", searcher, 2400, seed)
	s.Workers = workers
	return s
}

func TestBestAtToleratesOutOfOrderTrace(t *testing.T) {
	// Multi-worker traces are ordered by delivery, not by virtual time: a
	// short trial on a late-starting slot can finish (virtually) before a
	// long trial delivered earlier. BestAt must scan, not binary-search.
	o := &Outcome{
		DefaultWall: 10,
		Trace: []TracePoint{
			{Elapsed: 30, BestWall: 8, Trial: 1},
			{Elapsed: 10, BestWall: 9.5, Trial: 2},
			{Elapsed: 20, BestWall: 9, Trial: 3},
		},
	}
	for _, tc := range []struct{ at, want float64 }{
		{5, 10}, {10, 9.5}, {20, 9}, {29.9, 9}, {30, 8}, {100, 8},
	} {
		if got := o.BestAt(tc.at); got != tc.want {
			t.Errorf("BestAt(%.1f) = %.2f, want %.2f", tc.at, got, tc.want)
		}
	}
}

func TestBestAtMonotonicOnRealSession(t *testing.T) {
	out, err := (newWorkerSession(t, "hierarchical", 4, 3)).Run()
	if err != nil {
		t.Fatal(err)
	}
	prev := out.BestAt(0)
	for tEl := 0.0; tEl <= out.Elapsed; tEl += out.Elapsed / 200 {
		cur := out.BestAt(tEl)
		if cur > prev {
			t.Fatalf("BestAt regressed: %.4f at %.1f after %.4f", cur, tEl, prev)
		}
		prev = cur
	}
}

func TestSessionCanceledBeforeBaseline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := newWorkerSession(t, "random", 2, 1)
	s.Ctx = ctx
	if _, err := s.Run(); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled session should return context.Canceled, got %v", err)
	}
}

func TestSessionCancelsBetweenRounds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := newWorkerSession(t, "hierarchical", 4, 1)
	s.Ctx = ctx
	s.OnProgress = func(tp TracePoint) {
		if tp.Trial >= 3 {
			cancel()
		}
	}
	_, err := s.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled session should return context.Canceled, got %v", err)
	}
}

// crashSearcher forever re-proposes one configuration that OOMs h2.
type crashSearcher struct{ cfg *flags.Config }

func (s *crashSearcher) Name() string { return "crash" }
func (s *crashSearcher) Propose(ctx *Context) *flags.Config {
	if s.cfg == nil {
		s.cfg = flags.NewConfig(ctx.Reg)
		s.cfg.SetInt("MaxHeapSize", 128<<20)
		s.cfg.SetInt("InitialHeapSize", 64<<20)
	}
	return s.cfg
}
func (s *crashSearcher) Observe(*Context, *flags.Config, runner.Measurement) {}

func TestSessionReplaysCrashingConfigForFree(t *testing.T) {
	// Regression for the budget leak: a searcher stuck on a known-crashing
	// config must pay the launch-and-crash cost exactly once. Before the
	// runner cached failures, every re-proposal burned real budget.
	p, _ := workload.ByName("h2")
	r := runner.NewInProcess(jvmsim.New(), p)
	s := &Session{Runner: r, Searcher: &crashSearcher{}, BudgetSeconds: 1e9, Seed: 4, MaxTrials: 6}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Failures != 6 {
		t.Errorf("all 6 trials should fail, got %d", out.Failures)
	}
	if out.CacheHits != 5 {
		t.Errorf("trials 2..6 should replay from the cache, got %d hits", out.CacheHits)
	}
	firstCrash := out.Trace[1].Elapsed // baseline, then the one paid crash
	if out.Elapsed != firstCrash {
		t.Errorf("cached crashes consumed budget: elapsed %.2f, want %.2f", out.Elapsed, firstCrash)
	}
}

func testSearcherContext(t *testing.T, seed int64) *Context {
	t.Helper()
	reg := flags.NewRegistry()
	return &Context{
		Reg:       reg,
		Tree:      hierarchy.Build(reg),
		Rng:       rand.New(rand.NewSource(seed)),
		Objective: ObjectiveThroughput,
	}
}

func TestRandomProposeBatch(t *testing.T) {
	ctx := testSearcherContext(t, 5)
	got := Random{}.ProposeBatch(ctx, 6)
	if len(got) != 6 {
		t.Fatalf("ProposeBatch(6) returned %d configs", len(got))
	}
	for i, cfg := range got {
		if cfg == nil {
			t.Fatalf("proposal %d is nil", i)
		}
	}
}

func TestHierarchicalProposeBatchStopsAtSurveyBoundary(t *testing.T) {
	ctx := testSearcherContext(t, 5)
	h := NewHierarchical()

	// A huge first batch must stop at the survey boundary: beams are seeded
	// from observed survey results, so refinement cannot be proposed until
	// every survey measurement has been delivered.
	first := h.ProposeBatch(ctx, 100)
	if len(first) != len(h.combos) {
		t.Fatalf("first batch has %d proposals, want the %d survey combos", len(first), len(h.combos))
	}
	if h.surveyed {
		t.Fatal("survey must not finish before its observations arrive")
	}
	for i, cfg := range first {
		m := runner.Measurement{Key: cfg.Key(), Walls: []float64{float64(10 + i)},
			Mean: float64(10 + i), CostSeconds: float64(10 + i)}
		ctx.Trial++
		h.Observe(ctx, cfg, m)
	}

	second := h.ProposeBatch(ctx, 4)
	if !h.surveyed {
		t.Fatal("survey should finish once all observations are in")
	}
	if len(second) != 4 {
		t.Fatalf("refinement batch has %d proposals, want 4", len(second))
	}
}

// TestSessionStopsItsMeasurers: a session's measuring goroutines live
// exactly as long as the session. Each exit path — either budget, the
// wall clock, a cancel with and without BestEffort, a crash-point panic
// and a diverged resume — must leave the goroutine count at its value
// before the session and no measurer running, and each session must run
// exactly workers-1 measurers while it delivers trials.
func TestSessionStopsItsMeasurers(t *testing.T) {
	const workers = 4
	// The diverged resume replays a checkpoint whose seventh delivered trial
	// names a configuration the session never proposes.
	diverged := runToCheckpoint(t, "fop", "random", 1e6, 5, workers, 12)
	diverged.Trials[6].Key = "NoSuchKey=1"

	cases := []struct {
		name  string
		setup func(s *Session, cancel context.CancelFunc)
		// want is in the error Run returns, or in the degraded reason of
		// the outcome when ok; a crash case must panic instead.
		want      string
		ok, crash bool
	}{
		{name: "virtual budget", ok: true, want: "virtual tuning budget", setup: func(s *Session, _ context.CancelFunc) {
			s.BudgetSeconds = 900
		}},
		{name: "trial budget", ok: true, want: "trial budget", setup: func(s *Session, _ context.CancelFunc) {
			s.MaxTrials = 25
		}},
		{name: "wall clock", ok: true, want: "wall-clock", setup: func(s *Session, _ context.CancelFunc) {
			s.RealBudget = time.Minute
			// The clock jumps an hour after a few rounds have run.
			base, reads := time.Unix(0, 0), 0
			s.now = func() time.Time {
				if reads++; reads > 4 {
					base = base.Add(time.Hour)
				}
				return base
			}
		}},
		{name: "cancel", want: "session canceled", setup: func(s *Session, cancel context.CancelFunc) {
			s.OnProgress = cancelAt(s.OnProgress, 10, cancel)
		}},
		{name: "cancel, best effort", ok: true, want: "canceled", setup: func(s *Session, cancel context.CancelFunc) {
			s.BestEffort = true
			s.OnProgress = cancelAt(s.OnProgress, 10, cancel)
		}},
		{name: "crash point", crash: true, setup: func(s *Session, _ context.CancelFunc) {
			cp := &faultinject.CrashPoint{AtTrial: 10}
			inner := s.OnProgress
			s.OnProgress = func(tp TracePoint) { inner(tp); cp.OnTrial(tp.Trial) }
		}},
		{name: "diverged resume", want: "resume diverged at trial", setup: func(s *Session, _ context.CancelFunc) {
			s.Resume = diverged
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s := newSession(t, "fop", "random", 1e6, 5)
			s.Workers, s.Ctx = workers, ctx
			base := runtime.NumGoroutine()
			during := -1
			s.OnProgress = func(tp TracePoint) {
				if tp.Trial == 1 {
					during = measuring()
				}
			}
			tc.setup(s, cancel)

			var out *Outcome
			var err error
			crashed := func() (crashed bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(faultinject.SessionCrash); !ok {
							panic(r)
						}
						crashed = true
					}
				}()
				out, err = s.Run()
				return false
			}()
			switch {
			case crashed != tc.crash:
				t.Fatalf("session crashed=%v, want %v", crashed, tc.crash)
			case tc.crash:
			case tc.ok && (err != nil || !strings.Contains(out.DegradedReason, tc.want)):
				t.Fatalf("session ended with err=%v, want an outcome degraded by %q", err, tc.want)
			case !tc.ok && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("session ended with err=%v, want %q", err, tc.want)
			}
			if during != workers-1 {
				t.Fatalf("%d measuring goroutines when the first trial was delivered, want %d", during, workers-1)
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > base || measuring() > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the session ended (%d measuring), %d before it",
						runtime.NumGoroutine(), measuring(), base)
				}
				runtime.Gosched()
			}
		})
	}
}

// measuring counts the live goroutines a session's measurers started,
// whether or not they have run yet.
func measuring() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by repro/internal/core.startMeasurers")
}

// cancelAt chains fn with a cancel once trial n is delivered.
func cancelAt(fn func(TracePoint), n int, cancel context.CancelFunc) func(TracePoint) {
	return func(tp TracePoint) {
		fn(tp)
		if tp.Trial >= n {
			cancel()
		}
	}
}
