package faultinject

import (
	"testing"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

func TestChaosTelemetryCountsFaultsAndRetries(t *testing.T) {
	inner := newFake(okRun)
	// Every attempt wants a launch fault; the streak cap (2) forces the
	// third to run clean and suppresses its scheduled fault.
	ch := New(inner, Plan{Launch: 1, MaxConsecutive: 2}, 1)
	ch.Retry = runner.RetryPolicy{MaxAttempts: 3}
	ch.Telemetry = telemetry.New()
	ch.Trace = telemetry.NewTracer(0)

	cfg := testConfig()
	m := ch.Measure(cfg, 1)
	if m.Failed {
		t.Fatalf("expected eventual success: %+v", m)
	}
	ch.Trace.Commit(cfg.Key(), 42)

	snap := ch.Telemetry.Snapshot()
	for name, want := range map[string]float64{
		`chaos_faults_total{kind="launch"}`: 2,
		"chaos_suppressed_total":            1,
		"runner_attempts_total":             3,
		"runner_retries_total":              2,
		"runner_flakes_total":               2,
		"runner_measures_total":             1,
		"runner_condemned_total":            0,
	} {
		if snap[name] != want {
			t.Errorf("%s = %g, want %g", name, snap[name], want)
		}
	}

	// Per-attempt trace: fault+attempt for the two injected failures (the
	// retries marked), then the clean third attempt.
	wantKinds := []string{
		telemetry.EvFault, telemetry.EvAttempt,
		telemetry.EvFault, telemetry.EvRetry, telemetry.EvAttempt,
		telemetry.EvRetry, telemetry.EvAttempt,
	}
	evs := ch.Trace.Events()
	if len(evs) != len(wantKinds) {
		t.Fatalf("want %d events, got %d: %+v", len(wantKinds), len(evs), evs)
	}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %s, want %s", i, ev.Kind, wantKinds[i])
		}
		if ev.T != 42 || ev.Key != cfg.Key() {
			t.Errorf("event %d not committed with virtual time/key: %+v", i, ev)
		}
	}
	if evs[0].Detail != "launch" {
		t.Errorf("fault event detail = %q, want launch", evs[0].Detail)
	}
	if evs[1].Detail != string(runner.LaunchFlakeFailure) {
		t.Errorf("attempt event detail = %q, want %s", evs[1].Detail, runner.LaunchFlakeFailure)
	}
	if evs[6].Detail != "ok" {
		t.Errorf("clean attempt detail = %q, want ok", evs[6].Detail)
	}
}

func TestChaosTelemetryPassthroughWhenInactive(t *testing.T) {
	inner := newFake(okRun)
	ch := New(inner, Plan{}, 1) // no faults: pure passthrough
	ch.Telemetry = telemetry.New()
	ch.Trace = telemetry.NewTracer(0)

	ch.Measure(testConfig(), 1)
	snap := ch.Telemetry.Snapshot()
	if snap["runner_measures_total"] != 1 {
		t.Errorf("runner_measures_total = %g, want 1", snap["runner_measures_total"])
	}
	if snap[`chaos_faults_total{kind="launch"}`] != 0 {
		t.Errorf("inactive plan must inject nothing")
	}
}

func TestChaosTelemetryNilSafe(t *testing.T) {
	inner := newFake(okRun)
	ch := New(inner, Plan{Launch: 1, MaxConsecutive: 1}, 7)
	if m := ch.Measure(testConfig(), 1); m.Failed {
		t.Fatalf("un-instrumented chaos must behave as before: %+v", m)
	}
}
