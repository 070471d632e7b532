package runner

import (
	"repro/internal/telemetry"
)

// The runners share one instrumentation vocabulary, recorded by their one
// Harness, so every runner reports the same series:
//
//	runner_measures_total        fresh (non-cached) measurements delivered
//	runner_attempts_total        launch attempts, retries included
//	runner_retries_total         transient failures that were retried
//	runner_flakes_total          transient failures absorbed on the way to a verdict
//	runner_timeouts_total        runs killed by the harness timeout
//	runner_cache_hits_total      measurements replayed from the cache
//	runner_condemned_total       deterministic failures cached as verdicts
//	runner_measure_cost_seconds  histogram of virtual cost per measurement
//
// Under a fault source the harness also counts chaos_faults_total{kind=...}
// and chaos_suppressed_total. Wire Telemetry and Trace to the harness; a
// chaos handle's fields are the harness's.

// NoteCacheHit records a measurement replayed from the cache at zero cost.
func NoteCacheHit(reg *telemetry.Registry, tr *telemetry.Tracer, key string) {
	reg.Counter("runner_cache_hits_total").Inc()
	tr.Record(key, telemetry.Event{Kind: telemetry.EvCacheHit})
}

// NoteAttempt records the outcome of launch attempt n of key: the attempt
// itself, the retry that scheduled it (when retried), and a timeout kill.
// m is the single attempt's measurement, before retry accounting. n is the
// key's attempt index — the retry-loop index, or under a fault source the
// key's launch counter.
func NoteAttempt(reg *telemetry.Registry, tr *telemetry.Tracer, key string, n int, retried bool, m Measurement) {
	if reg == nil && tr == nil {
		return
	}
	if retried {
		reg.Counter("runner_retries_total").Inc()
		tr.Record(key, telemetry.Event{Kind: telemetry.EvRetry, Attempt: n})
	}
	reg.Counter("runner_attempts_total").Inc()
	detail := "ok"
	if m.Failed {
		detail = string(m.Failure)
		if m.Failure == TimeoutFailure {
			reg.Counter("runner_timeouts_total").Inc()
		}
	}
	tr.Record(key, telemetry.Event{
		Kind: telemetry.EvAttempt, Attempt: n, Cost: m.CostSeconds, Detail: detail,
	})
}

// NoteMeasured records a completed fresh measurement: its virtual cost, the
// flakes absorbed reaching it, and — for deterministic failures — the
// condemnation that caches the verdict.
func NoteMeasured(reg *telemetry.Registry, tr *telemetry.Tracer, key string, m Measurement) {
	if reg == nil && tr == nil {
		return
	}
	reg.Counter("runner_measures_total").Inc()
	if m.Flakes > 0 {
		reg.Counter("runner_flakes_total").Add(uint64(m.Flakes))
	}
	reg.Histogram("runner_measure_cost_seconds", telemetry.DefSecondsBuckets).Observe(m.CostSeconds)
	if m.Failed && !m.Transient {
		reg.Counter("runner_condemned_total").Inc()
		tr.Record(key, telemetry.Event{Kind: telemetry.EvCondemned, Detail: string(m.Failure)})
	}
}
