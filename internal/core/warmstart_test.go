package core

import (
	"math/rand"
	"testing"

	"repro/internal/flags"
	"repro/internal/hierarchy"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

func warmTestCtx(reg *flags.Registry) *Context {
	return &Context{
		Reg:         reg,
		Tree:        hierarchy.Build(reg),
		Rng:         rand.New(rand.NewSource(1)),
		Objective:   ObjectiveThroughput,
		DefaultWall: 20,
		BestWall:    20,
		Best:        flags.NewConfig(reg),
		Budget:      1e6,
	}
}

func warmPrior(t *testing.T, reg *flags.Registry, args ...string) *flags.Config {
	t.Helper()
	cfg, err := flags.ParseArgs(reg, args)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestWarmStartNoPriorsIsTransparent(t *testing.T) {
	inner := NewSurrogate()
	if got := NewWarmStart(inner, nil); got != Searcher(inner) {
		t.Fatal("empty warm start must return the inner searcher unchanged")
	}
}

func TestWarmStartServesPriorsFirst(t *testing.T) {
	reg := flags.NewRegistry()
	ctx := warmTestCtx(reg)
	p1 := warmPrior(t, reg, "-XX:+UseG1GC")
	p2 := warmPrior(t, reg, "-XX:+UseSerialGC")

	inner, err := NewSearcher("hillclimb")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWarmStart(inner, []PriorSample{{Cfg: p1, Norm: 0.8}, {Cfg: p2, Norm: 0.9}})
	if w.Name() != inner.Name() {
		t.Fatalf("wrapper name %q, want %q", w.Name(), inner.Name())
	}
	if got := w.Propose(ctx); got != p1 {
		t.Fatal("first proposal is not the first prior")
	}
	if got := w.Propose(ctx); got != p2 {
		t.Fatal("second proposal is not the second prior")
	}
	if got := w.Propose(ctx); got == nil || got == p1 || got == p2 {
		t.Fatal("after priors drain the inner searcher must propose")
	}
}

func TestWarmStartBatchServesPriorsInRounds(t *testing.T) {
	reg := flags.NewRegistry()
	ctx := warmTestCtx(reg)
	priors := []PriorSample{
		{Cfg: warmPrior(t, reg, "-XX:+UseG1GC"), Norm: 0.8},
		{Cfg: warmPrior(t, reg, "-XX:+UseSerialGC"), Norm: 0.9},
		{Cfg: warmPrior(t, reg, "-XX:+UseConcMarkSweepGC"), Norm: 0.85},
	}
	inner, err := NewSearcher("random") // Random implements BatchSearcher
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := inner.(BatchSearcher); !ok {
		t.Fatal("test premise broken: random is not a BatchSearcher")
	}
	w := NewWarmStart(inner, priors)
	bs, ok := w.(BatchSearcher)
	if !ok {
		t.Fatal("wrapper over a BatchSearcher must stay a BatchSearcher")
	}
	// A round smaller than the prior queue serves only priors...
	first := bs.ProposeBatch(ctx, 2)
	if len(first) != 2 || first[0] != priors[0].Cfg || first[1] != priors[1].Cfg {
		t.Fatalf("first round = %d configs, want the first two priors", len(first))
	}
	// ...the next round drains the queue WITHOUT mixing in inner proposals...
	second := bs.ProposeBatch(ctx, 4)
	if len(second) != 1 || second[0] != priors[2].Cfg {
		t.Fatalf("second round = %d configs, want exactly the last prior", len(second))
	}
	// ...and only then does the inner searcher fill rounds.
	third := bs.ProposeBatch(ctx, 4)
	if len(third) != 4 {
		t.Fatalf("post-prior round = %d configs, want 4 from inner", len(third))
	}
}

func TestWarmStartPreloadsSurrogateModel(t *testing.T) {
	reg := flags.NewRegistry()
	ctx := warmTestCtx(reg)
	prior := warmPrior(t, reg, "-XX:+UseG1GC", "-XX:MaxGCPauseMillis=50")

	sur := NewSurrogate()
	w := NewWarmStart(sur, []PriorSample{{Cfg: prior, Norm: 0.75}})
	if got := w.Propose(ctx); got != prior {
		t.Fatal("first proposal is not the prior")
	}
	// The surrogate builds its model lazily at its own first proposal;
	// that init folds the preloaded samples in — so the model has the
	// priors' scores before the first model-driven proposal exists.
	if got := w.Propose(ctx); got == nil {
		t.Fatal("inner searcher did not propose after priors drained")
	}
	m := sur.models[reg.ID("MaxGCPauseMillis")]
	if m == nil {
		t.Fatal("no model for MaxGCPauseMillis")
	}
	v, _ := prior.Get("MaxGCPauseMillis")
	slot := m.slotOf(v)
	if m.count[slot] != 1 || m.sum[slot] != 0.75 {
		t.Fatalf("prior not folded into model: count=%v sum=%v", m.count[slot], m.sum[slot])
	}
	g1 := sur.models[reg.ID("UseG1GC")]
	if g1.count[1] != 1 {
		t.Fatal("prior's collector choice not folded into model")
	}
}

// TestWarmStartSessionDeterministic pins the determinism contract: two
// warm-started sessions with equal seeds and equal priors produce identical
// outcomes.
func TestWarmStartSessionDeterministic(t *testing.T) {
	run := func() *Outcome {
		reg := flags.NewRegistry()
		p, _ := workload.ByName("h2")
		prior := warmPrior(t, reg, "-XX:+UseG1GC", "-Xmx2g")
		s := &Session{
			Runner:        runner.NewInProcess(jvmsim.New(), p),
			Searcher:      NewWarmStart(NewSurrogate(), []PriorSample{{Cfg: prior, Norm: 0.8}}),
			Reg:           reg,
			BudgetSeconds: 3000,
			Seed:          11,
			Transfer:      "test-priors-v1",
		}
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Best.Key() != b.Best.Key() || a.BestWall != b.BestWall || a.Trials != b.Trials {
		t.Fatalf("warm-started sessions diverged:\n%v %v %d\n%v %v %d",
			a.Best.Key(), a.BestWall, a.Trials, b.Best.Key(), b.BestWall, b.Trials)
	}
}
