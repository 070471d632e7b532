package runner

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/workload"
)

func TestTransientClassification(t *testing.T) {
	for _, kind := range []jvmsim.FailureKind{
		LaunchFlakeFailure, CorruptReportFailure, InjectedCrashFailure, InjectedHangFailure,
	} {
		if !Transient(kind) {
			t.Errorf("%s should be transient", kind)
		}
	}
	for _, kind := range []jvmsim.FailureKind{
		jvmsim.StartupFailure, jvmsim.OOMFailure, jvmsim.StackOverflowFailure,
		TimeoutFailure, jvmsim.NoFailure,
	} {
		if Transient(kind) {
			t.Errorf("%s should be deterministic", kind)
		}
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	for i, want := range []float64{2, 4, 8} {
		if got := backoff(i); math.Abs(got-want) > 1e-9 {
			t.Errorf("backoff(%d) = %g, want %g", i, got, want)
		}
	}
	if got := (RetryPolicy{}).Attempts(); got != 3 {
		t.Errorf("default attempts = %d, want 3", got)
	}
}

// runAttempts measures through a cacheless harness under policy, whose
// attempt n is body(n): the one retry loop, with nothing around it.
func runAttempts(policy RetryPolicy, body func(n int) Measurement) Measurement {
	h := &Harness{Retry: policy}
	n := 0
	return h.Run(flags.NewConfig(flags.NewRegistry()), 1, 0, false, func(_, _ int) Measurement {
		n++
		return body(n - 1)
	})
}

func TestRetryPolicyRunAbsorbsTransientFailures(t *testing.T) {
	calls := 0
	m := runAttempts(RetryPolicy{MaxAttempts: 3}, func(n int) Measurement {
		calls++
		if n < 2 {
			return Measurement{Failed: true, Failure: LaunchFlakeFailure, CostSeconds: 0.5}
		}
		return Measurement{Walls: []float64{1.0}, Mean: 1.0, CostSeconds: 1.5}
	})
	if calls != 3 {
		t.Fatalf("expected 3 attempts, got %d", calls)
	}
	if m.Failed {
		t.Fatalf("final measurement should succeed: %+v", m)
	}
	if m.Attempts != 3 || m.Flakes != 2 || m.Transient {
		t.Errorf("attempt accounting wrong: %+v", m)
	}
	// 2 failed attempts + backoffs (2s then 4s) + the successful run.
	want := 0.5 + 2 + 0.5 + 4 + 1.5
	if math.Abs(m.CostSeconds-want) > 1e-9 {
		t.Errorf("cost = %g, want %g", m.CostSeconds, want)
	}
}

func TestRetryPolicyRunStopsOnDeterministicFailure(t *testing.T) {
	calls := 0
	m := runAttempts(RetryPolicy{MaxAttempts: 5}, func(int) Measurement {
		calls++
		return Measurement{Failed: true, Failure: jvmsim.OOMFailure, CostSeconds: 1}
	})
	if calls != 1 {
		t.Errorf("deterministic failures must not be retried (got %d attempts)", calls)
	}
	if m.Transient || !m.Failed || m.Attempts != 1 || m.Flakes != 0 {
		t.Errorf("unexpected measurement: %+v", m)
	}
}

func TestRetryPolicyRunExhaustsAsTransient(t *testing.T) {
	m := runAttempts(RetryPolicy{MaxAttempts: 2}, func(int) Measurement {
		return Measurement{Failed: true, Failure: CorruptReportFailure, CostSeconds: 0.5}
	})
	if !m.Failed || !m.Transient {
		t.Fatalf("exhausted retries must surface a transient failure: %+v", m)
	}
	// Both attempts plus the 2s backoff between them.
	if m.Attempts != 2 || m.Flakes != 1 || m.CostSeconds != 3.0 {
		t.Errorf("accounting wrong: %+v", m)
	}
}

// Regression (ISSUE 2): a RealTimeout kill used to be classified as a
// StartupFailure and charge only the launch overhead — a hung config cost
// almost nothing. It must be a TimeoutFailure charging the harness timeout.
func TestSubprocessRealTimeoutChargedAsTimeout(t *testing.T) {
	bin := jvmsimBinary(t)
	p, _ := workload.ByName("fop")
	sub := NewSubprocess(bin, p)
	sub.RealTimeout = time.Nanosecond // expires before the launch starts
	sub.TimeoutSeconds = 42

	m := sub.Measure(flags.NewConfig(flags.NewRegistry()), 1)
	if !m.Failed || m.Failure != TimeoutFailure {
		t.Fatalf("real-timeout kill must be a TimeoutFailure, got %+v", m)
	}
	want := 42 + LaunchOverheadSeconds
	if math.Abs(m.CostSeconds-want) > 1e-9 {
		t.Errorf("cost = %g, want %g (the harness timeout, not the launch overhead)", m.CostSeconds, want)
	}
	// Timeouts are deterministic: the verdict is cached and condemns.
	if n := sub.Elapsed(); math.Abs(n-m.CostSeconds) > 1e-6 {
		t.Errorf("elapsed = %g, want %g", n, m.CostSeconds)
	}
	if again := sub.Measure(flags.NewConfig(flags.NewRegistry()), 1); !again.FromCache {
		t.Error("a timed-out config must stay condemned-and-cached")
	}
}

// fakeLauncher writes an executable shell script standing in for jvmsim.
func fakeLauncher(t *testing.T, script string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fakesim")
	if err := os.WriteFile(path, []byte("#!/bin/sh\n"+script+"\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSubprocessRetriesCorruptReports(t *testing.T) {
	p, _ := workload.ByName("fop")
	// A launcher that always truncates its report mid-JSON.
	sub := NewSubprocess(fakeLauncher(t, `printf '{"benchmark":"fop","wall_se'`), p)
	sub.Retry = RetryPolicy{MaxAttempts: 3}

	cfg := flags.NewConfig(flags.NewRegistry())
	m := sub.Measure(cfg, 1)
	if !m.Failed || m.Failure != CorruptReportFailure {
		t.Fatalf("expected a corrupt-report failure, got %+v", m)
	}
	if m.Attempts != 3 || m.Flakes != 2 || !m.Transient {
		t.Errorf("corrupt reports must be retried to exhaustion: %+v", m)
	}
	// 3 wasted launches plus 2s+4s of backoff.
	want := 3*LaunchOverheadSeconds + 6
	if math.Abs(m.CostSeconds-want) > 1e-9 {
		t.Errorf("cost = %g, want %g", m.CostSeconds, want)
	}
	// Transient exhaustion is not a verdict: a re-proposal attempts again
	// rather than replaying a condemnation from the cache.
	before := sub.Elapsed()
	if again := sub.Measure(cfg, 1); again.FromCache {
		t.Error("transient failures must not be cached as condemnations")
	}
	if sub.Elapsed() == before {
		t.Error("the re-attempt should have consumed budget")
	}
}

func TestSubprocessRetriesLaunchFlakes(t *testing.T) {
	p, _ := workload.ByName("fop")
	// A launcher that dies without producing any report.
	sub := NewSubprocess(fakeLauncher(t, "exit 3"), p)
	sub.Retry = RetryPolicy{MaxAttempts: 2}
	m := sub.Measure(flags.NewConfig(flags.NewRegistry()), 1)
	if !m.Failed || m.Failure != LaunchFlakeFailure {
		t.Fatalf("expected a launch flake, got %+v", m)
	}
	if m.Attempts != 2 || m.Flakes != 1 || !m.Transient {
		t.Errorf("launch flakes must be retried: %+v", m)
	}
}

// A launcher that flakes on its first call and succeeds afterwards must
// yield a successful measurement with the flake charged.
func TestSubprocessRecoversAfterFlake(t *testing.T) {
	real := jvmsimBinary(t)
	p, _ := workload.ByName("fop")
	marker := filepath.Join(t.TempDir(), "flaked")
	script := `if [ ! -f ` + marker + ` ]; then touch ` + marker + `; exit 9; fi
exec ` + real + ` "$@"`
	sub := NewSubprocess(fakeLauncher(t, script), p)
	sub.Retry = RetryPolicy{MaxAttempts: 3}

	m := sub.Measure(flags.NewConfig(flags.NewRegistry()), 1)
	if m.Failed {
		t.Fatalf("measurement should recover from a single flake: %+v", m)
	}
	if m.Flakes != 1 || m.Attempts != 2 || m.Transient {
		t.Errorf("flake accounting wrong: %+v", m)
	}
	want := LaunchOverheadSeconds + 2 + m.Walls[0] + LaunchOverheadSeconds
	if math.Abs(m.CostSeconds-want) > 1e-9 {
		t.Errorf("cost = %g, want %g (flaked launch + backoff + real run)", m.CostSeconds, want)
	}
	// The recovered success is a definitive verdict and is cached.
	if again := sub.Measure(flags.NewConfig(flags.NewRegistry()), 1); !again.FromCache {
		t.Error("recovered measurements must be cached like any success")
	}
}
