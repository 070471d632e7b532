package faultinject_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jvmsim"
	"repro/internal/persist"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

const chaosBudgetSeconds = 45 * 60

// runChaosSession runs one hierarchical tuning session on a 4-worker farm
// under the unstable-farm fault plan and returns the outcome plus its
// serialized form.
func runChaosSession(t *testing.T, seed int64) (*core.Outcome, []byte) {
	t.Helper()
	prof, ok := workload.ByName("fop")
	if !ok {
		t.Fatal("no fop profile")
	}
	inner := runner.NewInProcess(jvmsim.New(), prof)
	plan, err := faultinject.ParsePlan("unstable-farm")
	if err != nil {
		t.Fatal(err)
	}
	chaos := faultinject.New(inner, plan, seed)
	chaos.HangDeadline = 2 * time.Millisecond
	chaos.Telemetry = telemetry.New()
	searcher, err := core.NewSearcher("hierarchical")
	if err != nil {
		t.Fatal(err)
	}
	session := &core.Session{
		Runner:        chaos,
		Searcher:      searcher,
		BudgetSeconds: chaosBudgetSeconds,
		Reps:          3,
		Seed:          seed,
		Workers:       4,
	}
	out, err := session.Run()
	if err != nil {
		t.Fatalf("chaos session failed: %v", err)
	}
	injected := 0.0
	for name, v := range chaos.Telemetry.Snapshot() {
		if strings.HasPrefix(name, "chaos_faults_total") {
			injected += v
		}
	}
	if injected == 0 {
		t.Fatal("the unstable farm injected nothing")
	}
	var buf bytes.Buffer
	if err := persist.FromOutcome(out).Write(&buf); err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// TestChaosSessionEndToEnd is the resilience acceptance test: a full
// hierarchical session on a flaky 4-worker farm terminates within budget,
// absorbs transient faults without condemning their configurations, and
// reproduces byte-for-byte for a fixed seed.
func TestChaosSessionEndToEnd(t *testing.T) {
	out, blob := runChaosSession(t, 42)

	if out.Flakes == 0 {
		t.Error("an unstable farm session should have absorbed flakes")
	}
	if out.Attempts <= out.Trials {
		t.Errorf("retries imply attempts (%d) > trials (%d)", out.Attempts, out.Trials)
	}
	if out.TransientFailures != 0 {
		t.Errorf("%d configurations ended transiently failed; the streak cap should prevent that",
			out.TransientFailures)
	}
	for _, rec := range out.AttemptHistory {
		if rec.Transient || (rec.Failed && runner.Transient(rec.Failure)) {
			t.Errorf("config %s reported failed on transient grounds: %+v", rec.Key, rec)
		}
	}
	// Trials only start inside the budget; the makespan may overrun by at
	// most the final trials' own cost (hang-heavy worst case stays well
	// under this bound).
	if out.Elapsed >= chaosBudgetSeconds+1000 {
		t.Errorf("session ran far past its budget: %.0fs of %ds", out.Elapsed, chaosBudgetSeconds)
	}
	if out.Best == nil || out.ImprovementPct <= 0 {
		t.Errorf("tuning under chaos should still find an improvement: %+v", out.ImprovementPct)
	}
	if out.Trace[len(out.Trace)-1].Flakes != out.Flakes {
		t.Error("the trace's final flake count should match the outcome's")
	}

	// Same seed, same farm: the whole serialized outcome is byte-identical.
	out2, blob2 := runChaosSession(t, 42)
	if !bytes.Equal(blob, blob2) {
		t.Errorf("same-seed chaos sessions diverged:\n--- run 1\n%s\n--- run 2\n%s", blob, blob2)
	}
	if out.Best.Key() != out2.Best.Key() || out.Flakes != out2.Flakes || out.Elapsed != out2.Elapsed {
		t.Errorf("same-seed sessions disagree: best %q/%q flakes %d/%d elapsed %g/%g",
			out.Best.Key(), out2.Best.Key(), out.Flakes, out2.Flakes, out.Elapsed, out2.Elapsed)
	}

	// A different seed schedules different faults.
	out3, _ := runChaosSession(t, 43)
	if out3.Flakes == out.Flakes && out3.Elapsed == out.Elapsed && out3.Attempts == out.Attempts {
		t.Error("different seeds produced identical chaos accounting — schedule looks seed-blind")
	}
}
