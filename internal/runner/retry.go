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
// retry additionally charges an exponentially growing backoff — the virtual
// cost of waiting out whatever upset the farm — so flaky infrastructure
// costs tuning time exactly as it would in the paper's wall-clock economy.
//
// The zero value means the defaults; see each field.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per measurement,
	// including the first. Values below 1 mean the default, 3.
	MaxAttempts int
	// BackoffSeconds is the virtual charge before the first retry. Zero
	// means the default, 2 seconds; negative disables backoff charges.
	BackoffSeconds float64
	// BackoffFactor multiplies the backoff on each further retry. Values
	// below 1 mean the default, 2.
	BackoffFactor float64
}

// DefaultRetryPolicy returns the defaults: 3 attempts, 2s backoff, doubling.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BackoffSeconds: 2, BackoffFactor: 2}
}

// Normalized resolves the zero-value defaults.
func (p RetryPolicy) Normalized() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts < 1 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BackoffSeconds == 0 {
		p.BackoffSeconds = d.BackoffSeconds
	} else if p.BackoffSeconds < 0 {
		p.BackoffSeconds = 0
	}
	if p.BackoffFactor < 1 {
		p.BackoffFactor = d.BackoffFactor
	}
	return p
}

// Backoff returns the virtual-seconds charge before retry n (0-based): the
// first retry costs BackoffSeconds, each further one BackoffFactor× more.
func (p RetryPolicy) Backoff(retry int) float64 {
	p = p.Normalized()
	return p.BackoffSeconds * math.Pow(p.BackoffFactor, float64(retry))
}

// Run drives the attempt loop shared by the Harness and the chaos layer:
// attempt(n) performs measurement attempt n and Run retries it while the
// outcome is a transient failure and the policy allows. Costs, attempt
// counts, and flake counts accumulate across attempts into the returned
// measurement; the final attempt supplies everything else. A measurement
// that is still failing transiently when the budget runs out is marked
// Transient so callers know not to condemn (cache) the configuration.
func (p RetryPolicy) Run(attempt func(n int) Measurement) Measurement {
	p = p.Normalized()
	cost, attempts, flakes := 0.0, 0, 0
	for n := 0; ; n++ {
		m := attempt(n)
		cost += m.CostSeconds
		if m.Attempts > 0 {
			attempts += m.Attempts
		} else {
			attempts++
		}
		flakes += m.Flakes
		if m.Failed && Transient(m.Failure) && n+1 < p.MaxAttempts {
			flakes++
			// p is already normalized; going through Backoff again would
			// turn an explicit "no backoff" (0 after normalization) back
			// into the default.
			cost += p.BackoffSeconds * math.Pow(p.BackoffFactor, float64(n))
			continue
		}
		m.CostSeconds = cost
		m.Attempts = attempts
		m.Flakes = flakes
		m.Transient = m.Failed && Transient(m.Failure)
		return m
	}
}
