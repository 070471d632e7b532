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
//   - the retry policy's one step decides each retry, with the runner_*
//     series and trace events recorded per attempt and per measurement;
//   - the final cost is charged, and a definitive verdict memoized, once.
//
// Run applies them to one measurement; RunBatch applies them to a round
// of measurements whose retry loops run in lockstep.
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
	reps = max(reps, 1)
	key := cfg.Key()
	sk := PhaseKey(phase, key)
	var m Measurement
	if h.replay(sk, key, reps, cache, &m) {
		return m
	}
	var t retryTally
	for n := 0; ; n++ {
		m = attempt(h.Reserve(sk, reps), reps)
		NoteAttempt(h.Telemetry, h.Trace, key, n, n > 0, m)
		var done bool
		if m, done = h.Retry.step(&t, n, m); done {
			h.finish(key, sk, &m, cache)
			return m
		}
	}
}

// Attempt is one pending measurement attempt in a RunBatch round: an
// attempt of cfgs[Index] for Reps repetitions starting at noise-rep index
// RepBase. The round's callback sets M to the attempt's outcome.
type Attempt struct {
	Index   int
	Cfg     *flags.Config
	Key     string
	RepBase int
	Reps    int
	M       Measurement

	sk    string
	n     int // this attempt's index in the trial's retry loop
	tally retryTally
}

// RunBatch measures a round of configurations with distinct keys under
// Run's rules, with their retry loops in lockstep: place receives each
// retry round's pending attempts in one call — first every trial the
// cache does not answer, then every trial whose attempt failed
// transiently with attempts left — and must set each attempt's M. A
// trial's rep indices, notes, charge and memoization are exactly those
// Run gives it, so the round equals concurrent Run calls over the same
// configurations, whichever way place groups or orders the attempts.
func (h *Harness) RunBatch(cfgs []*flags.Config, reps, phase int, cache bool, place func(round []*Attempt)) []Measurement {
	reps = max(reps, 1)
	out := make([]Measurement, len(cfgs))
	trials := make([]Attempt, len(cfgs))
	pending := make([]*Attempt, 0, len(cfgs))
	for i, cfg := range cfgs {
		a := &trials[i]
		*a = Attempt{Index: i, Cfg: cfg, Key: cfg.Key(), Reps: reps}
		a.sk = PhaseKey(phase, a.Key)
		if !h.replay(a.sk, a.Key, reps, cache, &out[i]) {
			pending = append(pending, a)
		}
	}
	for len(pending) > 0 {
		for _, a := range pending {
			a.RepBase = h.Reserve(a.sk, reps)
		}
		place(pending)
		next := pending[:0]
		for _, a := range pending {
			NoteAttempt(h.Telemetry, h.Trace, a.Key, a.n, a.n > 0, a.M)
			m, done := h.Retry.step(&a.tally, a.n, a.M)
			if !done {
				a.n++
				next = append(next, a)
				continue
			}
			h.finish(a.Key, a.sk, &m, cache)
			out[a.Index] = m
		}
		pending = next
	}
	return out
}

// replay answers a cacheable request from the cache into m, noting the
// hit, and reports whether it did.
func (h *Harness) replay(sk, key string, reps int, cache bool, m *Measurement) bool {
	if !cache {
		return false
	}
	var ok bool
	if *m, ok = h.Cached(sk, reps); ok {
		NoteCacheHit(h.Telemetry, h.Trace, key)
	}
	return ok
}

// finish notes a fresh measurement, charges its cost and, with cache set,
// memoizes a definitive verdict.
func (h *Harness) finish(key, sk string, m *Measurement, cache bool) {
	NoteMeasured(h.Telemetry, h.Trace, key, *m)
	h.Settle(sk, *m, cache)
}
