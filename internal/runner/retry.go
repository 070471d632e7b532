package runner

import (
	"math"

	"repro/internal/jvmsim"
)

// The resilient measurement pipeline distinguishes two classes of failure.
// Transient failures are harness accidents — a launch that never started, a
// report that arrived corrupted, a fault the chaos layer injected — and are
// worth retrying: the configuration itself may be perfectly fine.
// Deterministic failures (OOM, bad flag combinations, timeouts) condemn the
// configuration: re-running would reproduce them, so they are cached and
// replayed at zero cost instead.
const (
	// LaunchFlakeFailure marks a launch that produced neither a run nor a
	// report: the process could not start or died without output. A real
	// farm sees these when a node is sick, not when a config is bad.
	LaunchFlakeFailure jvmsim.FailureKind = "launch-error"
	// CorruptReportFailure marks a run whose report could not be parsed —
	// truncated or garbled output scraping.
	CorruptReportFailure jvmsim.FailureKind = "corrupt-report"
	// InjectedCrashFailure marks a spurious crash injected by the chaos
	// layer (internal/faultinject) partway through a run.
	InjectedCrashFailure jvmsim.FailureKind = "injected-crash"
	// InjectedHangFailure marks an injected hang that the harness killed at
	// its real-time deadline.
	InjectedHangFailure jvmsim.FailureKind = "injected-hang"
	// NodeDownFailure marks a trial that could not be placed on any live
	// evaluator node: the whole fleet was dead or quarantined when the
	// dispatch layer (internal/dispatch) gave up re-dispatching. The
	// configuration itself is not condemned — a node death says nothing
	// about the flags — so the kind is transient and never cached.
	NodeDownFailure jvmsim.FailureKind = "node-down"
	// NodeRejectedFailure marks a trial an evaluator node refused with a
	// 400-class protocol rejection (unknown flag, key mismatch, bogus
	// payload). The rejection is deterministic — every node would answer
	// the same — so it condemns the configuration like a local validation
	// failure would.
	NodeRejectedFailure jvmsim.FailureKind = "node-rejected"
)

// Transient reports whether kind names a failure worth retrying. Everything
// else — VM startup rejections, OOMs, stack overflows, timeouts — is
// deterministic: the configuration is condemned and the verdict cached.
func Transient(kind jvmsim.FailureKind) bool {
	switch kind {
	case LaunchFlakeFailure, CorruptReportFailure, InjectedCrashFailure, InjectedHangFailure, NodeDownFailure:
		return true
	}
	return false
}

// RetryPolicy bounds how a runner re-attempts transiently failed
// measurements. Every attempt is charged to the virtual budget, and each
// retry additionally charges an exponentially growing backoff — 2 virtual
// seconds before the first retry, doubling before each further one — the
// virtual cost of waiting out whatever upset the farm, so flaky
// infrastructure costs tuning time exactly as it would in the paper's
// wall-clock economy.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per measurement,
	// including the first. Values below 1 mean the default, 3.
	MaxAttempts int
}

// The backoff schedule: the charge before the first retry, and its growth
// factor per further retry.
const (
	retryBackoffSeconds = 2.0
	retryBackoffFactor  = 2.0
)

// Attempts returns MaxAttempts, or the default 3 when it is below 1.
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 3
	}
	return p.MaxAttempts
}

// backoff returns the virtual-seconds charge before retry n (0-based).
func backoff(retry int) float64 {
	return retryBackoffSeconds * math.Pow(retryBackoffFactor, float64(retry))
}

// retryTally accumulates one measurement's attempts across its retries.
type retryTally struct {
	cost             float64
	attempts, flakes int
}

// step is the retry rule of the one attempt loop (Harness.end, which
// Run and RunBatch share): it folds attempt n's outcome m into t and reports
// whether the measurement is done. A transient failure with attempts left
// is retried, after charging the backoff. A done measurement carries the
// cost, attempt and flake counts accumulated across its attempts; the
// final attempt supplies everything else. One still failing transiently
// when the attempts run out is marked Transient, so callers know not to
// condemn (cache) the configuration.
func (p RetryPolicy) step(t *retryTally, n int, m Measurement) (Measurement, bool) {
	t.cost += m.CostSeconds
	if m.Attempts > 0 {
		t.attempts += m.Attempts
	} else {
		t.attempts++
	}
	t.flakes += m.Flakes
	if m.Failed && Transient(m.Failure) && n+1 < p.Attempts() {
		t.flakes++
		t.cost += backoff(n)
		return m, false
	}
	m.CostSeconds, m.Attempts, m.Flakes = t.cost, t.attempts, t.flakes
	m.Transient = m.Failed && Transient(m.Failure)
	return m, true
}
