package runner

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/workload"
)

func TestPhaseKey(t *testing.T) {
	// Phase 0 is the bare key: pre-drift state stays byte-compatible with
	// runners that know nothing about phases.
	if got := PhaseKey(0, "MaxHeapSize=512m"); got != "MaxHeapSize=512m" {
		t.Errorf("phase 0 key = %q, want bare key", got)
	}
	if got := PhaseKey(2, "MaxHeapSize=512m"); got != "ph2|MaxHeapSize=512m" {
		t.Errorf("phase 2 key = %q", got)
	}
	if got := PhaseKey(1, ""); got != "ph1|" {
		t.Errorf("phase 1 empty key = %q", got)
	}
}

func TestPhaseTimeout(t *testing.T) {
	p, _ := workload.ByName("fop")
	sim := jvmsim.New()
	eff, err := jvmsim.DefaultShift().Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	// A disabled threshold stays disabled; an unshifted profile keeps the
	// calibrated one.
	if got := PhaseTimeout(0, sim, p, eff); got != 0 {
		t.Errorf("disabled timeout rescaled to %g", got)
	}
	if got := PhaseTimeout(100, sim, p, p); got != 100 {
		t.Errorf("identity phase rescaled timeout to %g", got)
	}
	// The default surge makes the default config slower, so the kill
	// threshold must grow by the same ratio.
	got := PhaseTimeout(100, sim, p, eff)
	reg := flags.NewRegistry()
	want := 100 * sim.DefaultWall(reg, eff, 1) / sim.DefaultWall(reg, p, 1)
	if got <= 100 || got != want {
		t.Errorf("shifted timeout = %g, want %g (> 100)", got, want)
	}
}

func TestInProcessSetPhase(t *testing.T) {
	r, reg := newRunner(t, "fop")
	base := r.TimeoutSeconds
	cfg := flags.NewConfig(reg)
	m0 := r.Measure(cfg, 1)

	// An invalid shift fails closed and changes nothing.
	if err := r.SetPhase(1, jvmsim.PhaseShift{AllocFactor: -3}); err == nil {
		t.Fatal("negative shift factor accepted")
	}
	if r.TimeoutSeconds != base {
		t.Error("failed SetPhase must not touch the timeout")
	}

	if err := r.SetPhase(1, jvmsim.DefaultShift()); err != nil {
		t.Fatal(err)
	}
	// The shifted regime is slower, the kill threshold recalibrates, and a
	// config measured pre-shift is genuinely re-measured, not cache-hit.
	if r.TimeoutSeconds <= base {
		t.Errorf("timeout %g not rescaled above base %g", r.TimeoutSeconds, base)
	}
	m1 := r.Measure(cfg, 1)
	if m1.FromCache {
		t.Error("pre-shift measurement served as a post-shift cache hit")
	}
	if m1.Mean <= m0.Mean {
		t.Errorf("surge wall %g not above base wall %g", m1.Mean, m0.Mean)
	}

	// Phase 0 with the identity restores the base profile and threshold.
	if err := r.SetPhase(0, jvmsim.PhaseShift{}); err != nil {
		t.Fatal(err)
	}
	if r.TimeoutSeconds != base {
		t.Errorf("phase 0 timeout = %g, want %g", r.TimeoutSeconds, base)
	}
	back := r.Measure(cfg, 1)
	if !back.FromCache || back.Mean != m0.Mean {
		t.Error("phase 0 should replay the phase-0 cache")
	}
}

func TestWorkloadAccessors(t *testing.T) {
	p, _ := workload.ByName("fop")
	if got := NewInProcess(jvmsim.New(), p).Workload(); got != p {
		t.Error("InProcess.Workload mismatch")
	}
	if got := NewSubprocess("/bin/false", p).Workload(); got != p {
		t.Error("Subprocess.Workload mismatch")
	}
}

func TestRunnerStateRoundTrip(t *testing.T) {
	r, reg := newRunner(t, "fop")
	cfg := flags.NewConfig(reg)
	cfg.SetInt("MaxHeapSize", 1<<30)
	m := r.Measure(cfg, 2)
	snap, err := r.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	// A fresh runner restored from the snapshot replays the measurement
	// from cache at zero cost, with the clock carried over exactly.
	r2, _ := newRunner(t, "fop")
	if err := r2.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if r2.Elapsed() != r.Elapsed() {
		t.Errorf("restored clock %g != %g", r2.Elapsed(), r.Elapsed())
	}
	hit := r2.Measure(cfg.Clone(), 2)
	if !hit.FromCache || hit.Mean != m.Mean {
		t.Error("restored runner should replay the cached measurement")
	}

	// Both runners continue the same stream: the next snapshot extends the
	// restored bytes with one identical segment.
	cfg2 := flags.NewConfig(reg)
	cfg2.SetInt("MaxHeapSize", 2<<30)
	r.Measure(cfg2, 2)
	r2.Measure(cfg2.Clone(), 2)
	next, err := r.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	next2, err := r2.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(next, snap) || string(next) != string(next2) {
		t.Errorf("snapshots do not extend the restored stream:\n%s\n%s", next, next2)
	}

	// Fail closed on garbage and on an empty stream; an empty object is an
	// empty state that measures normally.
	if err := r2.RestoreState([]byte("garbage")); err == nil || !strings.Contains(err.Error(), "restore state") {
		t.Errorf("garbage restore err = %v", err)
	}
	if err := r2.RestoreState(nil); err == nil {
		t.Error("empty stream restored")
	}
	if err := r2.RestoreState([]byte("{}")); err != nil || r2.Elapsed() != 0 {
		t.Fatalf("empty state restore = %v (elapsed %g)", err, r2.Elapsed())
	}
	if fresh := r2.Measure(cfg.Clone(), 2); fresh.FromCache {
		t.Error("empty restored state answered from cache")
	}
}

func TestSubprocessAndMultiStateRoundTrip(t *testing.T) {
	p, _ := workload.ByName("fop")
	sp := NewSubprocess("/bin/false", p)
	snap, err := sp.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewSubprocess("/bin/false", p).RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if err := sp.RestoreState([]byte("{")); err == nil {
		t.Error("Subprocess garbage restore accepted")
	}

	m, err := NewMulti(jvmsim.New(), []*workload.Profile{p})
	if err != nil {
		t.Fatal(err)
	}
	snap, err = m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if err := m.RestoreState([]byte("{")); err == nil {
		t.Error("Multi garbage restore accepted")
	}
}
