package runner

import (
	"slices"
	"time"

	"repro/internal/flags"
	"repro/internal/jvmsim"
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
//   - every other attempt, retries included, is drawn from the fault
//     source when one is installed (Faults), and an attempt the source
//     does not fail draws fresh noise-rep indices;
//   - the retry policy's one step decides each retry, with the runner_*
//     series and trace events recorded per attempt and per measurement;
//   - the final cost is charged, and a definitive verdict memoized, once.
//
// Run applies them to one measurement; RunBatch applies them to a round
// of measurements whose retry loops run in lockstep. Both take every
// attempt through the same two steps, begin and end, around the body.
type Harness struct {
	// Retry bounds re-attempts of transient failures; the zero value means
	// the defaults (see RetryPolicy). Set before the first Measure call.
	Retry RetryPolicy
	// Telemetry optionally receives the runner metric series (see
	// telemetry.go) and, with a fault source, the chaos_* series; Trace
	// optionally receives per-attempt trace events. Both are nil-safe
	// no-ops when unset.
	Telemetry *telemetry.Registry
	Trace     *telemetry.Tracer
	// Faults, when set, is consulted before every attempt the cache does
	// not answer (the chaos layer, internal/faultinject, installs one).
	// Set before the first Measure call.
	Faults Faults

	// State holds the clock, rep indices, launch counters and cache, and
	// snapshots them.
	State
}

// Faults is a per-attempt fault source. Draw decides what launch attempt
// n of state key sk suffers — nil for a clean attempt — and must be a
// pure function of (sk, n), so a session's faults depend on each key's
// own history and never on goroutine scheduling. MinAttempts is the retry
// budget that outlasts the source's longest run of failure draws: a
// measurement gets at least that many attempts, so a configuration that
// only ever failed by injection is never condemned.
type Faults interface {
	Draw(sk string, n int) *Fault
	MinAttempts() int
}

// Fault is one drawn fault. A Failure fails the attempt without running
// the body; Scale and Stall change a copy of a clean result the body
// returned.
type Fault struct {
	// Kind names an injected fault in the chaos_faults_total series and the
	// trace; empty for a suppressed draw.
	Kind string
	// Suppressed marks a failure draw the source let through clean, which
	// chaos_suppressed_total counts.
	Suppressed bool
	// Failure, Message and Cost describe the failed attempt; Hang is how
	// long it really blocks first, the way a wedged launch blocks until
	// the harness kills it.
	Failure jvmsim.FailureKind
	Message string
	Cost    float64
	Hang    time.Duration
	// Scale multiplies the walls, pauses, means and cost (a latency
	// spike). Stall multiplies the cost alone and keeps the clean cost as
	// HedgeCostSeconds (a result delivered late). Zero leaves them alone.
	Scale, Stall float64
}

// MeasurementHarness returns h. Every runner built on a Harness has it
// through the embedded field, which is how a wrapping layer (the chaos
// handle) reaches the harness it configures.
func (h *Harness) MeasurementHarness() *Harness { return h }

// Run measures cfg for reps repetitions (at least one) in the given phase.
// body performs one measurement attempt of reps repetitions starting at
// noise-rep index repBase; Run supplies everything around it. With cache
// unset, nothing is replayed or memoized, but the clock is still charged.
func (h *Harness) Run(cfg *flags.Config, reps, phase int, cache bool, body func(repBase, reps int) Measurement) Measurement {
	a := Attempt{Cfg: cfg, Key: cfg.Key(), Reps: max(reps, 1)}
	a.sk = PhaseKey(phase, a.Key)
	var m Measurement
	if h.replay(a.sk, a.Key, a.Reps, cache, &m) {
		return m
	}
	for {
		if h.begin(&a) {
			a.M = body(a.RepBase, a.Reps)
		} else if a.fault.Hang > 0 {
			time.Sleep(a.fault.Hang)
		}
		if m, done := h.end(&a, cache); done {
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

	sk     string
	n      int    // this attempt's index in the trial's retry loop
	launch int    // the attempt number noted: n, or the key's launch counter under a fault source
	fault  *Fault // the fault drawn for this attempt, nil when clean
	tally  retryTally
}

// RunBatch measures a round of configurations with distinct keys under
// Run's rules, with their retry loops in lockstep: place receives each
// retry round's attempts that run in one call — first every trial the
// cache does not answer, then every trial whose attempt failed
// transiently with attempts left, less those the fault source fails
// without running — and must set each attempt's M. A trial's rep indices,
// faults, notes, charge and memoization are exactly those Run gives it, so
// the round equals concurrent Run calls over the same configurations,
// whichever way place groups or orders the attempts. Injected hangs block
// the round once per wave.
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
		// Move the attempts that run to the front. The order of the rest
		// shows nowhere: trace events group per key, and counters add.
		run := 0
		var hang time.Duration
		for i, a := range pending {
			if h.begin(a) {
				pending[run], pending[i] = a, pending[run]
				run++
			} else if a.fault.Hang > hang {
				hang = a.fault.Hang
			}
		}
		time.Sleep(hang)
		if run > 0 {
			place(pending[:run])
		}
		next := pending[:0]
		for _, a := range pending {
			if m, done := h.end(a, cache); done {
				out[a.Index] = m
			} else {
				next = append(next, a)
			}
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

// begin opens attempt a. Without a fault source it reserves fresh rep
// indices and the body runs. With one, the attempt takes the key's next
// launch number and draws its fault, noting it; a failure fault becomes
// the attempt's outcome without running the body or reserving rep
// indices. It reports whether the body must run the attempt.
func (h *Harness) begin(a *Attempt) bool {
	a.launch = a.n
	if h.Faults != nil {
		a.launch = h.nextLaunch(a.sk)
		a.fault = h.Faults.Draw(a.sk, a.launch)
		if f := a.fault; f != nil {
			if f.Suppressed {
				h.Telemetry.Counter("chaos_suppressed_total").Inc()
			} else {
				h.Telemetry.Counter(`chaos_faults_total{kind="` + f.Kind + `"}`).Inc()
				h.Trace.Record(a.Key, telemetry.Event{Kind: telemetry.EvFault, Attempt: a.launch, Detail: f.Kind})
			}
			if f.Failure != "" {
				a.M = Measurement{Key: a.Key, Failed: true, Failure: f.Failure, FailureMessage: f.Message, CostSeconds: f.Cost}
				return false
			}
		}
	}
	a.RepBase = h.Reserve(a.sk, a.Reps)
	return true
}

// end closes attempt a: a drawn spike or stall changes a copy of its
// clean outcome, the attempt is noted, and the retry step decides. A done
// measurement is noted, its whole cost charged, and — with cache set — a
// definitive verdict memoized: under a fault source, the last attempt's
// own outcome as the body returned it, with its own one-attempt tally.
// It reports whether the measurement is done, with its result.
func (h *Harness) end(a *Attempt, cache bool) (Measurement, bool) {
	own := a.M
	m := a.fault.apply(own)
	NoteAttempt(h.Telemetry, h.Trace, a.Key, a.launch, a.n > 0, m)
	policy := h.Retry
	if h.Faults != nil {
		policy.MaxAttempts = max(policy.Attempts(), h.Faults.MinAttempts())
	}
	m, done := policy.step(&a.tally, a.n, m)
	if !done {
		a.n++
		return m, false
	}
	NoteMeasured(h.Telemetry, h.Trace, a.Key, m)
	memo := &m
	if h.Faults != nil {
		if own.Attempts == 0 {
			own.Attempts = 1
		}
		memo = &own
	}
	if !cache || m.Transient {
		memo = nil
	}
	h.Settle(a.sk, m.CostSeconds, memo)
	return m, true
}

// apply returns clean result m as fault f leaves it. A failed or empty
// result passes unchanged, and so does every result under a nil fault.
// The walls and pauses are scaled in copies: their backing arrays are the
// body's, whose clean outcome the cache may keep.
func (f *Fault) apply(m Measurement) Measurement {
	if f == nil || m.Failed || len(m.Walls) == 0 {
		return m
	}
	if s := f.Scale; s > 0 {
		m.Walls, m.Pauses = slices.Clone(m.Walls), slices.Clone(m.Pauses)
		for i := range m.Walls {
			m.Walls[i] *= s
		}
		for i := range m.Pauses {
			m.Pauses[i] *= s
		}
		m.Mean *= s
		m.MeanPause *= s
		m.CostSeconds *= s
	}
	if f.Stall > 0 {
		m.HedgeCostSeconds = m.CostSeconds
		m.CostSeconds *= f.Stall
	}
	return m
}
