package runner

import (
	"repro/internal/flags"
	"repro/internal/telemetry"
)

// Harness is the measurement loop every caching runner shares. InProcess,
// Subprocess, Multi and the dispatch pool embed it and keep only their
// attempt bodies — simulate, launch the binary, score across suite
// members, place on the fleet — so the rules for when a measurement is
// replayed, retried, charged and memoized have exactly one definition:
//
//   - state is keyed per (phase, config) through PhaseKey, while the
//     measurement, traces and telemetry stay on the bare config key;
//   - a cached verdict replays at zero cost (State.Cached);
//   - every attempt, retries included, draws fresh noise-rep indices;
//   - RetryPolicy.Run drives the attempts, with the runner_* series and
//     trace events recorded per attempt and per measurement;
//   - the final cost is charged, and a definitive verdict memoized, once.
//
// The chaos layer (internal/faultinject) is a wrapper, not a harness: it
// numbers attempts per key across Measure calls and wraps the inner
// runner's retries with its own, sharing only RetryPolicy.Run and the
// Note* hooks.
type Harness struct {
	// Retry bounds re-attempts of transient failures; the zero value means
	// the defaults (see RetryPolicy). Set before the first Measure call.
	Retry RetryPolicy
	// Telemetry optionally receives the runner metric series (see
	// telemetry.go); Trace optionally receives per-attempt trace events.
	// Both are nil-safe no-ops when unset. When a ChaosRunner wraps the
	// runner, wire them to the chaos layer instead.
	Telemetry *telemetry.Registry
	Trace     *telemetry.Tracer

	// State holds the clock, rep indices and cache, and snapshots them.
	State
}

// Run measures cfg for reps repetitions (at least one) in the given phase.
// attempt performs one measurement attempt of reps repetitions starting at
// noise-rep index repBase; Run supplies everything around it. With cache
// unset, nothing is replayed or memoized, but the clock is still charged.
func (h *Harness) Run(cfg *flags.Config, reps, phase int, cache bool, attempt func(repBase, reps int) Measurement) Measurement {
	if reps < 1 {
		reps = 1
	}
	key := cfg.Key()
	sk := PhaseKey(phase, key)
	if cache {
		if m, ok := h.Cached(sk, reps); ok {
			NoteCacheHit(h.Telemetry, h.Trace, key)
			return m
		}
	}
	m := h.Retry.Run(func(n int) Measurement {
		m := attempt(h.Reserve(sk, reps), reps)
		NoteAttempt(h.Telemetry, h.Trace, key, n, n > 0, m)
		return m
	})
	NoteMeasured(h.Telemetry, h.Trace, key, m)
	h.Settle(sk, m, cache)
	return m
}
