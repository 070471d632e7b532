package runner

import (
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/workload"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

// jvmsimBinary builds cmd/jvmsim once per test binary.
func jvmsimBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "jvmsim-bin")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "jvmsim")
		cmd := exec.Command("go", "build", "-o", binPath, "repro/cmd/jvmsim")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Logf("build output: %s", out)
		}
	})
	if buildErr != nil {
		t.Skipf("cannot build jvmsim binary: %v", buildErr)
	}
	return binPath
}

func TestSubprocessMeasureMatchesInProcess(t *testing.T) {
	bin := jvmsimBinary(t)
	p, _ := workload.ByName("fop")
	sub := NewSubprocess(bin, p)
	sim := jvmsim.New()
	inp := NewInProcess(sim, p)

	cfg := flags.NewConfig(flags.NewRegistry())
	cfg.SetBool("UseG1GC", true)
	cfg.SetBool("UseParallelGC", false)
	cfg.SetInt("MaxHeapSize", 1<<30)

	ms := sub.Measure(cfg, 2)
	mi := inp.Measure(cfg, 2)
	if ms.Failed || mi.Failed {
		t.Fatalf("runs failed: sub=%+v in=%+v", ms, mi)
	}
	// Same model, same noise hash, same rep indices ⇒ identical walls.
	if len(ms.Walls) != len(mi.Walls) {
		t.Fatalf("wall counts differ: %d vs %d", len(ms.Walls), len(mi.Walls))
	}
	for i := range ms.Walls {
		diff := ms.Walls[i] - mi.Walls[i]
		if diff < -1e-6 || diff > 1e-6 {
			t.Errorf("wall %d differs: %.6f vs %.6f", i, ms.Walls[i], mi.Walls[i])
		}
	}
	if sub.Elapsed() <= 0 {
		t.Error("subprocess runner should consume virtual time")
	}
}

func TestSubprocessReportsVMFailures(t *testing.T) {
	bin := jvmsimBinary(t)
	p, _ := workload.ByName("h2")
	sub := NewSubprocess(bin, p)
	bad := flags.NewConfig(flags.NewRegistry())
	bad.SetBool("UseG1GC", true)
	bad.SetBool("UseConcMarkSweepGC", true)
	m := sub.Measure(bad, 1)
	if !m.Failed || m.Failure != jvmsim.StartupFailure {
		t.Errorf("expected startup failure through the subprocess path, got %+v", m)
	}
}

func TestSubprocessOOM(t *testing.T) {
	bin := jvmsimBinary(t)
	p, _ := workload.ByName("h2")
	sub := NewSubprocess(bin, p)
	small := flags.NewConfig(flags.NewRegistry())
	small.SetInt("MaxHeapSize", 128<<20)
	small.SetInt("InitialHeapSize", 64<<20)
	m := sub.Measure(small, 1)
	if !m.Failed || m.Failure != jvmsim.OOMFailure {
		t.Errorf("expected OOM through the subprocess path, got %+v", m)
	}
}

func TestSubprocessCache(t *testing.T) {
	bin := jvmsimBinary(t)
	p, _ := workload.ByName("fop")
	sub := NewSubprocess(bin, p)
	cfg := flags.NewConfig(flags.NewRegistry())
	sub.Measure(cfg, 1)
	m := sub.Measure(cfg, 1)
	if !m.FromCache || m.CostSeconds != 0 {
		t.Error("second identical measurement should replay from cache")
	}
}

func TestJvmsimBinaryBadUsage(t *testing.T) {
	bin := jvmsimBinary(t)
	// Unknown benchmark → exit 2.
	if err := exec.Command(bin, "nope").Run(); err == nil {
		t.Error("unknown benchmark should fail")
	}
	// Unrecognized VM option → exit 1 like the real launcher.
	cmd := exec.Command(bin, "-XX:+NotARealFlag", "fop")
	if err := cmd.Run(); err == nil {
		t.Error("unrecognized option should fail")
	}
	// -list prints all 29 benchmarks.
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("-list failed: %v", err)
	}
	if lines := len(splitLines(string(out))); lines != 29 {
		t.Errorf("-list printed %d names, want 29", lines)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
