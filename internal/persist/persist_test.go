package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

func sampleOutcome(t *testing.T) *core.Outcome {
	t.Helper()
	p, _ := workload.ByName("fop")
	s := &core.Session{
		Runner:        runner.NewInProcess(jvmsim.New(), p),
		Searcher:      core.NewHierarchical(),
		BudgetSeconds: 800,
		Seed:          3,
	}
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	out := sampleOutcome(t)
	saved := FromOutcome(out)

	var buf bytes.Buffer
	if err := saved.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Workload != out.Workload || loaded.BestWall != out.BestWall ||
		loaded.Trials != out.Trials || loaded.ImprovementPct != out.ImprovementPct {
		t.Errorf("round trip lost fields: %+v vs outcome %+v", loaded, out)
	}
	if len(loaded.Trace) != len(out.Trace) {
		t.Error("trace not preserved")
	}

	// The stored command line must rebuild the exact configuration.
	reg := flags.NewRegistry()
	cfg, err := loaded.Config(reg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Key() != out.Best.Key() {
		t.Errorf("config round trip changed:\n %s\n %s", cfg.Key(), out.Best.Key())
	}
}

func TestBestFlagsMapMatchesDiff(t *testing.T) {
	out := sampleOutcome(t)
	saved := FromOutcome(out)
	reg := out.Best.Registry()
	diff := out.Best.Diff(flags.NewConfig(reg))
	if len(saved.BestFlags) != len(diff) {
		t.Errorf("BestFlags has %d entries, diff has %d", len(saved.BestFlags), len(diff))
	}
	for _, name := range diff {
		if _, ok := saved.BestFlags[name]; !ok {
			t.Errorf("flag %s missing from BestFlags", name)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	out := sampleOutcome(t)
	path := filepath.Join(t.TempDir(), "outcome.json")
	if err := FromOutcome(out).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Searcher != "hierarchical" {
		t.Errorf("loaded searcher %q", loaded.Searcher)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}

// TestSaveFileAtomic pins the crash-safety contract: saving never leaves
// temp files behind, overwrites in place, and a failed save cannot destroy
// the previous file.
func TestSaveFileAtomic(t *testing.T) {
	out := sampleOutcome(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "outcome.json")
	for i := 0; i < 2; i++ { // second pass overwrites the first
		if err := FromOutcome(out).SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "outcome.json" {
		t.Fatalf("save left extra files behind: %v", entries)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("overwritten file unreadable: %v", err)
	}

	// A save into a nonexistent directory fails without touching anything.
	if err := FromOutcome(out).SaveFile(filepath.Join(dir, "no", "dir", "x.json")); err == nil {
		t.Fatal("save into a missing directory should error")
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("failed save damaged the existing file: %v", err)
	}
}

// TestSaveFileMode: an archive is readable by others, 0644, whether it is
// written fresh or over an older one.
func TestSaveFileMode(t *testing.T) {
	out := sampleOutcome(t)
	path := filepath.Join(t.TempDir(), "outcome.json")
	for i := 0; i < 2; i++ {
		if err := FromOutcome(out).SaveFile(path); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != 0o644 {
			t.Fatalf("save %d left mode %v, want -rw-r--r--", i+1, got)
		}
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage should error")
	}
	if _, err := Read(strings.NewReader(`{"version": 999}`)); err == nil {
		t.Error("future version should be rejected")
	}
}

func TestFromOutcomeWithoutBest(t *testing.T) {
	s := FromOutcome(&core.Outcome{Workload: "w"})
	if s.CommandLine != nil || len(s.BestFlags) != 0 {
		t.Error("nil Best should serialize cleanly")
	}
}
