package core

import (
	"testing"

	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

func TestEnsembleRegistered(t *testing.T) {
	s, err := NewSearcher("ensemble")
	if err != nil || s.Name() != "ensemble" {
		t.Fatalf("ensemble not registered: %v", err)
	}
	found := false
	for _, n := range SearcherNames() {
		if n == "ensemble" {
			found = true
		}
	}
	if !found {
		t.Error("ensemble missing from SearcherNames")
	}
}

func TestEnsembleTriesEveryArm(t *testing.T) {
	p, _ := workload.ByName("fop")
	e := NewEnsemble()
	s := &Session{
		Runner:   runner.NewInProcess(jvmsim.New(), p),
		Searcher: e,
		Seed:     3,
	}
	s.MaxTrials = 12
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, arm := range e.arms {
		if arm.uses == 0 {
			t.Errorf("arm %d (%s) never used", i, arm.searcher.Name())
		}
	}
}

func TestEnsembleImproves(t *testing.T) {
	// h2's heap pressure is discoverable by any of the ensemble's arms.
	out, err := newSession(t, "h2", "ensemble", 8000, 5).Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.ImprovementPct < 10 {
		t.Errorf("ensemble found only %.1f%%", out.ImprovementPct)
	}
}

func TestEnsembleWindowBounded(t *testing.T) {
	p, _ := workload.ByName("fop")
	e := NewEnsemble()
	s := &Session{
		Runner:   runner.NewInProcess(jvmsim.New(), p),
		Searcher: e,
		Seed:     4,
	}
	s.MaxTrials = 2 * ensembleWindow
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials <= ensembleWindow {
		t.Fatalf("only %d trials; the window (%d) never filled", out.Trials, ensembleWindow)
	}
	if len(e.history) > ensembleWindow {
		t.Errorf("history grew to %d, window is %d", len(e.history), ensembleWindow)
	}
}

func TestEnsembleCreditsImprovingArm(t *testing.T) {
	// Feed the ensemble synthetic observations: make arm selection follow
	// credit by checking the recorded history flags.
	p, _ := workload.ByName("fop")
	e := NewEnsemble()
	s := &Session{
		Runner:   runner.NewInProcess(jvmsim.New(), p),
		Searcher: e,
		Seed:     6,
	}
	s.MaxTrials = 60
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	for _, h := range e.history {
		if h.improved {
			improved++
		}
	}
	if out.ImprovementPct > 0 && improved == 0 {
		t.Error("session improved but no arm got credit")
	}
}

func TestSessionWorkersRunMoreTrials(t *testing.T) {
	run := func(workers int) *Outcome {
		p, _ := workload.ByName("fop")
		s := &Session{
			Runner:        runner.NewInProcess(jvmsim.New(), p),
			Searcher:      NewHierarchical(),
			BudgetSeconds: 2000,
			Seed:          8,
			Workers:       workers,
		}
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one := run(1)
	four := run(4)
	if four.Trials < one.Trials*2 {
		t.Errorf("4 workers ran %d trials vs %d on one; expected ~4x", four.Trials, one.Trials)
	}
	if four.BestWall > one.BestWall*1.05 {
		t.Errorf("parallel tuning should not end much worse: %.2f vs %.2f",
			four.BestWall, one.BestWall)
	}
	// Makespan stays within the budget plus one measurement of slack.
	if four.Elapsed > 2000+6*four.DefaultWall+10 {
		t.Errorf("makespan %.0f exceeds budget", four.Elapsed)
	}
}

func TestSessionWorkersDeterministic(t *testing.T) {
	run := func() *Outcome {
		p, _ := workload.ByName("xalan")
		s := &Session{
			Runner:        runner.NewInProcess(jvmsim.New(), p),
			Searcher:      NewHierarchical(),
			BudgetSeconds: 1500,
			Seed:          9,
			Workers:       3,
		}
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.BestWall != b.BestWall || a.Trials != b.Trials {
		t.Error("multi-worker sessions must stay deterministic")
	}
}
