package faultinject

import (
	"strings"
	"testing"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

func TestCrashPointFiresOnceAtTrial(t *testing.T) {
	var fired []int
	cp := &CrashPoint{AtTrial: 3, Kill: func(trial int) { fired = append(fired, trial) }}
	for trial := 1; trial <= 6; trial++ {
		cp.OnTrial(trial)
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("crash point fired at %v, want exactly once at trial 3", fired)
	}
}

func TestCrashPointDefaultKillPanicsWithSessionCrash(t *testing.T) {
	cp := &CrashPoint{AtTrial: 2}
	defer func() {
		crash, ok := recover().(SessionCrash)
		if !ok {
			t.Fatal("default kill should panic with SessionCrash")
		}
		if crash.Trial != 2 {
			t.Fatalf("crash trial = %d, want 2", crash.Trial)
		}
		if !strings.Contains(crash.Error(), "trial 2") {
			t.Fatalf("crash message %q should name the trial", crash.Error())
		}
	}()
	cp.OnTrial(1)
	cp.OnTrial(2)
	t.Fatal("unreachable: trial 2 should have killed the session")
}

func TestCrashPointInertCases(t *testing.T) {
	var nilCP *CrashPoint
	nilCP.OnTrial(5) // nil-safe no-op
	disarmed := &CrashPoint{AtTrial: 0, Kill: func(int) { t.Fatal("disarmed crash point fired") }}
	for trial := 0; trial < 4; trial++ {
		disarmed.OnTrial(trial)
	}
}

func TestChaosStateRoundTrip(t *testing.T) {
	p, _ := workload.ByName("fop")
	newChaos := func() *ChaosRunner {
		inner := runner.NewInProcess(jvmsim.New(), p)
		return New(inner, Plan{Launch: 0.4, Spike: 0.3, MaxConsecutive: 2}, 7)
	}
	reg := flags.NewRegistry()
	var cfgs []*flags.Config
	for i := 0; i < 6; i++ {
		cfg := flags.NewConfig(reg)
		cfg.SetInt("MaxHeapSize", int64(256+128*i)<<20)
		cfgs = append(cfgs, cfg)
	}

	// The reference: one runner measuring all six configurations, taking
	// a snapshot where the drill crashes — state streams are equal for
	// equal snapshot histories.
	continuous := newChaos()
	var want []runner.Measurement
	for i, cfg := range cfgs {
		if i == 3 {
			if _, err := continuous.SnapshotState(); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, continuous.Measure(cfg, 2))
	}

	// The drill: measure three, snapshot, restore into a brand-new runner,
	// measure the rest. The suffix must observe the identical fault
	// schedule and measurements — the crash was invisible.
	first := newChaos()
	for _, cfg := range cfgs[:3] {
		first.Measure(cfg, 2)
	}
	state, err := first.SnapshotState()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	second := newChaos()
	if err := second.RestoreState(state); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for i, cfg := range cfgs[3:] {
		got := second.Measure(cfg, 2)
		w := want[3+i]
		if got.Mean != w.Mean || got.CostSeconds != w.CostSeconds || got.Failed != w.Failed {
			t.Fatalf("measurement %d diverged after restore:\ngot:  %+v\nwant: %+v", 3+i, got, w)
		}
	}
	endA, err := continuous.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	endB, err := second.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if string(endA) != string(endB) {
		t.Fatalf("restored runner's end state diverged from the continuous run:\ncontinuous: %s\nrestored:   %s", endA, endB)
	}
}

func TestChaosSnapshotRequiresSnapshottingInner(t *testing.T) {
	ch := New(newFake(okRun), Plan{Launch: 0.5}, 1)
	if _, err := ch.SnapshotState(); err == nil {
		t.Fatal("snapshot over a non-snapshotting inner runner should error")
	}
	if err := ch.RestoreState([]byte(`{}`)); err == nil {
		t.Fatal("restore over a non-snapshotting inner runner should error")
	}
}

func TestChaosPlanString(t *testing.T) {
	plan := Plan{Launch: 0.25, Spike: 0.5}
	ch := New(newFake(okRun), plan, 1)
	if got, want := ch.PlanString(), plan.String(); got != want {
		t.Fatalf("PlanString = %q, want %q", got, want)
	}
	if got := ch.Plan(); got.Launch != plan.Launch {
		t.Fatalf("Plan() = %+v, want the constructor's plan", got)
	}
}
