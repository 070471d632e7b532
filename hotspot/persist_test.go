package hotspot

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestResultSaveAndLoad(t *testing.T) {
	res, err := Tune(Options{Benchmark: "fop", BudgetMinutes: 15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fop.json")
	if err := res.Save(path); err != nil {
		t.Fatal(err)
	}
	saved, cfg, err := LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Workload != "fop" || saved.BestWall != res.BestWall {
		t.Errorf("loaded summary mismatch: %+v", saved)
	}
	if cfg.Key() != res.Best.Key() {
		t.Error("reconstructed config differs from the winner")
	}
}

func TestResultWriteJSON(t *testing.T) {
	res, err := Tune(Options{Benchmark: "fop", BudgetMinutes: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"workload": "fop"`, `"command_line"`, `"improvement_pct"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}

func TestLoadResultMissing(t *testing.T) {
	if _, _, err := LoadResult(filepath.Join(t.TempDir(), "none.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestTuneWithWorkers(t *testing.T) {
	one, err := Tune(Options{Benchmark: "fop", BudgetMinutes: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Tune(Options{Benchmark: "fop", BudgetMinutes: 20, Seed: 6, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if four.Trials <= one.Trials {
		t.Errorf("4 workers ran %d trials vs %d", four.Trials, one.Trials)
	}
}

func TestExplainAndMinimize(t *testing.T) {
	res, err := Tune(Options{Benchmark: "startup.xml.validation", BudgetMinutes: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	contribs, err := Explain(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(contribs) == 0 {
		t.Fatal("winner changed flags but attribution is empty")
	}
	// The lead contribution must be a JIT-mode flag on a startup benchmark.
	lead := contribs[0]
	if lead.Reverted && lead.DeltaPct < 10 {
		t.Errorf("lead contribution suspiciously small: %+v", lead)
	}

	min, args, err := Minimize(res, nil, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(args) > len(res.CommandLine) {
		t.Error("minimization added flags")
	}
	if len(min.ExplicitNames()) == 0 {
		t.Error("minimal config lost everything, including the winner")
	}
}

func TestExplainUnknownBenchmark(t *testing.T) {
	if _, err := Explain(&Result{Benchmark: "nope"}, nil); err == nil {
		t.Error("unknown benchmark should error")
	}
	if _, _, err := Minimize(&Result{Benchmark: "nope"}, nil, 1); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestTuneCommon(t *testing.T) {
	suite, _ := Suite("dacapo")
	res, err := TuneCommon(suite[:4], Options{BudgetMinutes: 60, Seed: 7, Noise: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Normalized objective: defaults score 1.0.
	if res.DefaultWall < 0.99 || res.DefaultWall > 1.01 {
		t.Errorf("normalized baseline = %.3f, want 1.0", res.DefaultWall)
	}
	if res.ImprovementPct <= 0 {
		t.Error("common tuning should improve the aggregate")
	}
	if res.Benchmark == "" || res.Collector == "" {
		t.Error("result metadata incomplete")
	}
}

// TuneCommon measures in-process throughput only; an option that would
// change the transport, the store or the objective is refused by name,
// not silently ignored.
func TestTuneCommonRejectsIgnoredOptions(t *testing.T) {
	suite, _ := Suite("dacapo")
	for name, opts := range map[string]Options{
		"Nodes":             {Nodes: []string{"127.0.0.1:1"}},
		"FleetListen":       {FleetListen: "127.0.0.1:0"},
		"JVMSimPath":        {JVMSimPath: "/nonexistent/jvmsim"},
		"TransferDir":       {TransferDir: t.TempDir()},
		`Objective "pause"`: {Objective: "pause"},
	} {
		opts.BudgetMinutes = 1
		if _, err := TuneCommon(suite[:2], opts); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("TuneCommon with %s: err = %v, want one naming the option", name, err)
		}
	}
}

func TestTuneCommonInvalid(t *testing.T) {
	if _, err := TuneCommon(nil, Options{}); err == nil {
		t.Error("empty suite should error")
	}
	if _, err := TuneCommon([]*Profile{{Name: "bad"}}, Options{}); err == nil {
		t.Error("invalid profile should error")
	}
}
