package core

import (
	"math"
	"testing"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

func newSession(t *testing.T, bench, searcher string, budget float64, seed int64) *Session {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("no workload %s", bench)
	}
	sim := jvmsim.New()
	s, err := NewSearcher(searcher)
	if err != nil {
		t.Fatal(err)
	}
	return &Session{
		Runner:        runner.NewInProcess(sim, p),
		Searcher:      s,
		BudgetSeconds: budget,
		Seed:          seed,
	}
}

func TestSessionRequiresRunnerAndSearcher(t *testing.T) {
	if _, err := (&Session{}).Run(); err == nil {
		t.Error("empty session should error")
	}
	if _, err := (&Session{Searcher: Random{}}).Run(); err == nil {
		t.Error("session without runner should error")
	}
}

func TestSessionImprovesStartupBenchmark(t *testing.T) {
	s := newSession(t, "startup.compiler.compiler", "hierarchical", 3000, 1)
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.ImprovementPct < 30 {
		t.Errorf("hierarchical tuner found only %.1f%% on a warm-up-bound program", out.ImprovementPct)
	}
	if out.Best == nil || out.BestWall >= out.DefaultWall {
		t.Error("outcome should carry an improved best config")
	}
	if out.Trials == 0 || out.Elapsed <= 0 {
		t.Error("outcome accounting looks empty")
	}
}

func TestSessionRespectsBudget(t *testing.T) {
	s := newSession(t, "fop", "hierarchical", 900, 2)
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The last trial may overshoot by at most one measurement (~6× timeout
	// + overhead); the loop must stop right after.
	slack := 6*out.DefaultWall + 10
	if out.Elapsed > 900+slack {
		t.Errorf("budget 900s but consumed %.0fs", out.Elapsed)
	}
	if out.Elapsed < 600 {
		t.Errorf("budget underused: %.0fs of 900s", out.Elapsed)
	}
}

func TestSessionDeterministicUnderSeed(t *testing.T) {
	a, err := newSession(t, "xalan", "hierarchical", 1500, 7).Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSession(t, "xalan", "hierarchical", 1500, 7).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.BestWall != b.BestWall || a.Trials != b.Trials || a.Best.Key() != b.Best.Key() {
		t.Errorf("same seed, different outcomes: %.3f/%d vs %.3f/%d",
			a.BestWall, a.Trials, b.BestWall, b.Trials)
	}
	c, err := newSession(t, "xalan", "hierarchical", 1500, 8).Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Key() == c.Best.Key() && a.BestWall == c.BestWall && a.Trials == c.Trials {
		t.Log("different seeds converged to identical outcomes (possible but suspicious)")
	}
}

func TestSessionMaxTrials(t *testing.T) {
	s := newSession(t, "fop", "random", 1e9, 3)
	s.MaxTrials = 25
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != 25 {
		t.Errorf("MaxTrials=25 but ran %d", out.Trials)
	}
}

func TestSessionNeverReturnsWorseThanDefault(t *testing.T) {
	for _, name := range SearcherNames() {
		s := newSession(t, "startup.scimark.fft", name, 1200, 11)
		out, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.BestWall > out.DefaultWall {
			t.Errorf("%s: best %.2f worse than default %.2f", name, out.BestWall, out.DefaultWall)
		}
		if out.ImprovementPct < 0 {
			t.Errorf("%s: negative improvement %.2f", name, out.ImprovementPct)
		}
	}
}

func TestTraceIsMonotone(t *testing.T) {
	out, err := newSession(t, "jython", "genetic-flat", 2000, 5).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Trace) < 2 {
		t.Fatal("trace too short")
	}
	for i := 1; i < len(out.Trace); i++ {
		if out.Trace[i].BestWall > out.Trace[i-1].BestWall+1e-9 {
			t.Fatalf("best-so-far regressed at %d: %.3f -> %.3f",
				i, out.Trace[i-1].BestWall, out.Trace[i].BestWall)
		}
		if out.Trace[i].Elapsed < out.Trace[i-1].Elapsed {
			t.Fatalf("trace time went backwards at %d", i)
		}
	}
	if out.Trace[0].BestWall != out.DefaultWall {
		t.Error("trace should start at the baseline")
	}
}

func TestBestAt(t *testing.T) {
	o := &Outcome{
		DefaultWall: 100,
		Trace: []TracePoint{
			{Elapsed: 10, BestWall: 100},
			{Elapsed: 20, BestWall: 80},
			{Elapsed: 30, BestWall: 70},
		},
	}
	cases := []struct{ at, want float64 }{
		{0, 100}, {10, 100}, {25, 80}, {30, 70}, {1e9, 70},
	}
	for _, c := range cases {
		if got := o.BestAt(c.at); got != c.want {
			t.Errorf("BestAt(%.0f) = %.0f, want %.0f", c.at, got, c.want)
		}
	}
}

func TestScore(t *testing.T) {
	if !math.IsInf(Score(runner.Measurement{Failed: true}), 1) {
		t.Error("failures must score +Inf")
	}
	if !math.IsInf(Score(runner.Measurement{}), 1) {
		t.Error("empty measurements must score +Inf")
	}
	if Score(runner.Measurement{Mean: 5, Walls: []float64{5}}) != 5 {
		t.Error("successful measurements score their mean")
	}
}

func TestNewSearcher(t *testing.T) {
	for _, n := range SearcherNames() {
		s, err := NewSearcher(n)
		if err != nil || s == nil {
			t.Errorf("NewSearcher(%s): %v", n, err)
			continue
		}
		if s.Name() != n {
			t.Errorf("NewSearcher(%s).Name() = %s", n, s.Name())
		}
	}
	if s, err := NewSearcher("subset"); err != nil || s.Name() != "subset-hillclimb" {
		t.Error("subset alias should resolve")
	}
	if _, err := NewSearcher("nope"); err == nil {
		t.Error("unknown searcher should error")
	}
}

func TestHierarchicalSurveyCoversAllBranchCombos(t *testing.T) {
	// The first 8 proposals must be the 4 collectors × 2 JIT modes.
	p, _ := workload.ByName("fop")
	sim := jvmsim.New()
	r := runner.NewInProcess(sim, p)
	h := NewHierarchical()
	s := &Session{Runner: r, Searcher: h, BudgetSeconds: 1e9, Seed: 9}
	s.MaxTrials = 8
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	collectors := map[string]bool{}
	tiered := map[bool]bool{}
	for _, c := range h.combos {
		if !c.seen {
			t.Errorf("branch combo %s not measured in survey", c.label)
		}
		collectors[c.base.Key()] = true
		tiered[c.base.Bool("TieredCompilation")] = true
	}
	if len(h.combos) != 8 {
		t.Fatalf("expected 8 combos, got %d", len(h.combos))
	}
	if !tiered[true] || !tiered[false] {
		t.Error("survey should cover both JIT modes")
	}
}

func TestHierarchicalNeverProposesInvalidConfigs(t *testing.T) {
	p, _ := workload.ByName("tomcat")
	sim := jvmsim.New()
	r := runner.NewInProcess(sim, p)
	s := &Session{Runner: r, Searcher: NewHierarchical(), BudgetSeconds: 4000, Seed: 21}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Dependency resolution is the point of the hierarchy: no proposal
	// should fail VM startup. (OOM/timeout are legitimate — those need a
	// measurement to discover.)
	if out.Failures > out.Trials/10 {
		t.Errorf("hierarchical produced %d failures in %d trials", out.Failures, out.Trials)
	}
}

func TestHierarchicalBeatsSubsetOnStartupBench(t *testing.T) {
	// The paper's Figure 2: prior-work subset tuning cannot touch JIT
	// flags, so warm-up-dominated programs stay unimproved.
	budget := 4000.0
	full, err := newSession(t, "startup.xml.validation", "hierarchical", budget, 13).Run()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := newSession(t, "startup.xml.validation", "subset-hillclimb", budget, 13).Run()
	if err != nil {
		t.Fatal(err)
	}
	if full.ImprovementPct < sub.ImprovementPct+10 {
		t.Errorf("whole-JVM tuning (%.1f%%) should clearly beat subset tuning (%.1f%%)",
			full.ImprovementPct, sub.ImprovementPct)
	}
}

func TestSubsetOnlyTouchesItsFlags(t *testing.T) {
	p, _ := workload.ByName("h2")
	sim := jvmsim.New()
	r := runner.NewInProcess(sim, p)
	s := &Session{Runner: r, Searcher: NewSubset(), BudgetSeconds: 2000, Seed: 4}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{}
	for _, f := range SubsetFlags() {
		allowed[f] = true
	}
	for _, n := range out.Best.ExplicitNames() {
		if !allowed[n] {
			t.Errorf("subset tuner touched %s", n)
		}
	}
}

func TestGeneticFlatMaintainsBoundedPopulation(t *testing.T) {
	p, _ := workload.ByName("fop")
	sim := jvmsim.New()
	g := &GeneticFlat{}
	s := &Session{Runner: runner.NewInProcess(sim, p), Searcher: g, BudgetSeconds: 1e9, Seed: 2}
	s.MaxTrials = 40
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(g.pop) != geneticPopSize {
		t.Errorf("population size %d, want %d", len(g.pop), geneticPopSize)
	}
	for i := 1; i < len(g.pop); i++ {
		if g.pop[i-1].wall > g.pop[i].wall {
			t.Error("population should stay sorted by fitness")
		}
	}
}

func TestHillClimbRestartsAfterStagnation(t *testing.T) {
	p, _ := workload.ByName("startup.scimark.fft")
	sim := jvmsim.New()
	h := &HillClimb{}
	s := &Session{Runner: runner.NewInProcess(sim, p), Searcher: h, BudgetSeconds: 1e9, Seed: 3}
	s.MaxTrials = 12 * hillRestartAfter
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials != s.MaxTrials {
		t.Fatalf("expected %d trials, got %d", s.MaxTrials, out.Trials)
	}
	// After 12 stagnation limits' worth of trials, the climber must have
	// moved off its initial current config at least once.
	if h.current == nil {
		t.Fatal("climber never initialized")
	}
}

func TestOutcomeImprovementMathConsistent(t *testing.T) {
	out, err := newSession(t, "batik", "hillclimb", 1000, 6).Run()
	if err != nil {
		t.Fatal(err)
	}
	wantImp := 100 * (out.DefaultWall - out.BestWall) / out.DefaultWall
	if math.Abs(out.ImprovementPct-wantImp) > 1e-9 {
		t.Error("ImprovementPct inconsistent with walls")
	}
	wantSp := out.DefaultWall / out.BestWall
	if math.Abs(out.Speedup-wantSp) > 1e-9 {
		t.Error("Speedup inconsistent with walls")
	}
}

func TestSessionWithCustomRegistryAndDefaults(t *testing.T) {
	// Passing explicit Reg/Tree must work the same as defaults.
	p, _ := workload.ByName("fop")
	sim := jvmsim.New()
	reg := flags.NewRegistry()
	s := &Session{
		Runner:        runner.NewInProcess(sim, p),
		Searcher:      NewHierarchical(),
		Reg:           reg,
		BudgetSeconds: 800,
		Seed:          1,
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Best.Registry() != reg {
		t.Error("best config should be bound to the provided registry")
	}
}
