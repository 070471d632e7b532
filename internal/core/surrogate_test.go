package core

import (
	"testing"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

func TestSurrogateRegistered(t *testing.T) {
	s, err := NewSearcher("surrogate")
	if err != nil || s.Name() != "surrogate" {
		t.Fatalf("surrogate not registered: %v", err)
	}
}

func TestSurrogateImprovesGCBoundBenchmark(t *testing.T) {
	// Heap size is nearly separable on h2, the surrogate's best case.
	out, err := newSession(t, "h2", "surrogate", 8000, 3).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.ImprovementPct < 10 {
		t.Errorf("surrogate found only %.1f%% on its best-case benchmark", out.ImprovementPct)
	}
}

func TestSurrogateProposalsMostlyLaunch(t *testing.T) {
	p, _ := workload.ByName("xalan")
	s := &Session{
		Runner:        runner.NewInProcess(jvmsim.New(), p),
		Searcher:      NewSurrogate(),
		BudgetSeconds: 4000,
		Seed:          7,
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Failures > out.Trials/4 {
		t.Errorf("%d of %d surrogate proposals failed to launch", out.Failures, out.Trials)
	}
}

func TestSurrogateModelLearnsDirections(t *testing.T) {
	// After a session on a warm-up-bound benchmark, the model's opinion of
	// TieredCompilation must favour "true".
	p, _ := workload.ByName("startup.compiler.compiler")
	sur := NewSurrogate()
	s := &Session{
		Runner:        runner.NewInProcess(jvmsim.New(), p),
		Searcher:      sur,
		BudgetSeconds: 8000,
		Seed:          2,
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	m := sur.models[flags.NewRegistry().ID("TieredCompilation")]
	if m == nil {
		t.Fatal("no model for TieredCompilation")
	}
	if m.count[0] == 0 || m.count[1] == 0 {
		t.Skip("model never observed both values under this seed")
	}
	if m.sum[1]/m.count[1] >= m.sum[0]/m.count[0] {
		t.Errorf("model should learn tiered=true is better: %v vs %v",
			m.sum[1]/m.count[1], m.sum[0]/m.count[0])
	}
}

func TestFlagModelSlots(t *testing.T) {
	p, _ := workload.ByName("fop")
	sur := NewSurrogate()
	s := &Session{
		Runner:        runner.NewInProcess(jvmsim.New(), p),
		Searcher:      sur,
		BudgetSeconds: 1e9,
		Seed:          1,
	}
	s.MaxTrials = 12
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	m := sur.models[flags.NewRegistry().ID("MaxHeapSize")]
	// Slot mapping covers the domain ends.
	lo := m.slotOf(flags.IntValue(m.flag.Min))
	hi := m.slotOf(flags.IntValue(m.flag.Max))
	if lo != 0 || hi != len(m.sum)-1 {
		t.Errorf("slot mapping: min→%d, max→%d of %d", lo, hi, len(m.sum))
	}
}
