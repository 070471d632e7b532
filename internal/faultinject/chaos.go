package faultinject

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// faultKind is what one attempt suffers.
type faultKind int

const (
	faultNone faultKind = iota
	faultLaunch
	faultCorrupt
	faultCrash
	faultHang
	faultSpike
	faultStraggle
)

// ChaosRunner wraps a Runner and injects the Plan's faults into its
// measurement attempts, retrying the transient ones under its RetryPolicy
// and charging every attempt — and its backoff — to the virtual budget.
// It implements runner.Runner and is safe for concurrent use.
//
// Determinism: the fault for attempt n of configuration key k is a pure
// hash of (Seed, k, n). Attempt numbering per key only depends on that
// key's own history, never on goroutine scheduling, so sessions stay
// reproducible at any worker count. The per-key attempt counters (and the
// virtual clock) are the layer's only state; everything else it acts on
// is derived:
//
//   - a key is settled — left alone, since a replay of the inner runner's
//     cache involves no launch to sabotage — exactly when that cache
//     answers it (runner.State.Cached); an inner runner without a cache
//     settles nothing, so every re-measurement is a fresh launch;
//   - the streak of consecutive injected failures a measurement opens
//     with is the key's trailing run of failure draws in the schedule,
//     modulo MaxConsecutive+1 (a suppressed draw ends a capped streak);
//   - injected faults are counted by the chaos_* telemetry series only.
type ChaosRunner struct {
	// Retry bounds re-attempts of transiently failed measurements. The
	// zero value means the defaults; the effective attempt count is always
	// large enough to outlast the plan's MaxConsecutive streak, so a
	// configuration that only ever failed transiently is never condemned.
	Retry runner.RetryPolicy
	// HangDeadline bounds injected hangs in real time — the chaos layer
	// really blocks, the way a wedged launch really blocks a worker, and
	// the deadline really cuts it down. Values ≤ 0 mean 25ms.
	HangDeadline time.Duration
	// Telemetry and Trace optionally receive metrics and trace events. The
	// chaos layer reports the shared runner_* series (it sees every attempt,
	// injected and clean, with global attempt indices — so leave the inner
	// runner's telemetry unset) plus its own chaos_faults_total{kind=...}
	// and chaos_suppressed_total.
	Telemetry *telemetry.Registry
	Trace     *telemetry.Tracer

	inner runner.Runner
	// cache is the inner runner's memo of definitive verdicts, nil when it
	// keeps none.
	cache cacher
	plan  Plan
	seed  int64
	// alwaysFails is set when every draw of the schedule is a failure
	// fault, so a streak needs no walk back through the schedule.
	alwaysFails bool

	mu       sync.Mutex
	elapsed  runner.VirtualClock
	attempts map[string]int // per-key launch-attempt counter
	// phase scopes the per-key state under phase-shifting workloads (see
	// runner.PhaseSetter): a key settled before a drift is fair game again
	// after it — the post-shift measurement is a fresh launch to sabotage.
	// Phase 0 keys are bare, so chaos state snapshots taken before any
	// drift stay byte-identical to phase-unaware builds.
	phase int
	// stream, innerLen and dirty track the state stream (see state.go):
	// every segment so far, how much of the inner runner's stream they
	// carry, and the keys changed since — nil until the first snapshot or
	// restore, so a chaos layer that is never checkpointed tracks nothing.
	stream   []byte
	innerLen int
	dirty    map[string]struct{}
}

// cacher is the part of runner.State the chaos layer reads: whether the
// inner runner's cache answers a request.
type cacher interface {
	Cached(sk string, reps int) (runner.Measurement, bool)
}

// New wraps inner in a chaos layer driven by plan and seed.
func New(inner runner.Runner, plan Plan, seed int64) *ChaosRunner {
	c := &ChaosRunner{
		inner:    inner,
		plan:     plan.normalized(),
		seed:     seed,
		attempts: make(map[string]int),
	}
	c.cache, _ = inner.(cacher)
	// The draws that fail form a prefix of [0, 1), so the largest draw
	// fails only when every draw does.
	c.alwaysFails = isFailureFault(c.plan.faultAt(maxDraw))
	return c
}

// Plan returns the normalized fault plan in effect.
func (c *ChaosRunner) Plan() Plan { return c.plan }

// PlanString renders the active fault schedule in canonical DSL form. The
// checkpoint layer folds it into the session fingerprint, so a run cannot
// resume under a different chaos plan than the one it crashed with.
func (c *ChaosRunner) PlanString() string { return c.plan.String() }

// Workload returns the wrapped runner's profile.
func (c *ChaosRunner) Workload() *workload.Profile { return c.inner.Workload() }

// Elapsed returns total virtual seconds consumed, including synthesized
// fault costs and retry backoffs the inner runner never saw.
func (c *ChaosRunner) Elapsed() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elapsed.Seconds()
}

// SetPhase implements runner.PhaseSetter: the inner runner switches to the
// shifted profile and the chaos layer's per-key attempt counters (and
// with them the seeded fault schedule) re-scope to the new phase, as the
// inner runner's cache, and so the settled keys, do.
func (c *ChaosRunner) SetPhase(phase int, shift jvmsim.PhaseShift) error {
	ps, ok := c.inner.(runner.PhaseSetter)
	if !ok {
		return fmt.Errorf("faultinject: inner runner %T does not support phase-shifting workloads", c.inner)
	}
	if err := ps.SetPhase(phase, shift); err != nil {
		return err
	}
	c.mu.Lock()
	c.phase = phase
	c.mu.Unlock()
	return nil
}

// Measure implements runner.Runner.
func (c *ChaosRunner) Measure(cfg *flags.Config, reps int) runner.Measurement {
	key := cfg.Key()
	c.mu.Lock()
	// State (and the seeded fault schedule) is scoped per (phase, key);
	// everything externally visible — measurement key, traces, telemetry —
	// stays on the bare configuration key.
	sk := runner.PhaseKey(c.phase, key)
	n := c.attempts[sk]
	c.mu.Unlock()

	var m runner.Measurement
	if !c.plan.Active() || c.settled(sk, reps) {
		m = c.inner.Measure(cfg, reps)
		if m.FromCache {
			runner.NoteCacheHit(c.Telemetry, c.Trace, key)
		} else {
			runner.NoteMeasured(c.Telemetry, c.Trace, key, m)
		}
	} else {
		// Guarantee the retry budget outlasts the longest possible streak
		// of injected failures: the plan caps consecutive faults per key at
		// MaxConsecutive, so MaxConsecutive+1 attempts always reach a clean
		// one. Without this a transient-only config could be condemned.
		policy := c.Retry
		if policy.Attempts() <= c.plan.MaxConsecutive {
			policy.MaxAttempts = c.plan.MaxConsecutive + 1
		}
		// A round measures a key at most once, so this measurement's
		// attempts are the key's next ones, in order.
		streak := c.streakBefore(sk, n)
		m = policy.Run(func(retryN int) runner.Measurement {
			return c.attempt(cfg, reps, key, sk, retryN, &streak)
		})
		m.Key = key
		if !m.FromCache {
			runner.NoteMeasured(c.Telemetry, c.Trace, key, m)
		}
	}

	c.mu.Lock()
	c.elapsed.Charge(m.CostSeconds)
	c.mu.Unlock()
	return m
}

// settled reports whether the inner runner's cache answers sk — what the
// inner runner would replay instead of launching.
func (c *ChaosRunner) settled(sk string, reps int) bool {
	if c.cache == nil {
		return false
	}
	_, ok := c.cache.Cached(sk, max(reps, 1))
	return ok
}

// streakBefore is the streak of consecutive injected failures key sk
// carries into attempt n: each failure draw extends it, a clean draw ends
// it, and a failure draw at MaxConsecutive is suppressed and ends it too,
// so it is the trailing run of failure draws before n modulo
// MaxConsecutive+1. The walk back is as long as that run.
func (c *ChaosRunner) streakBefore(sk string, n int) int {
	run := n
	if !c.alwaysFails {
		run = 0
		for i := n - 1; i >= 0 && isFailureFault(c.faultFor(sk, i)); i-- {
			run++
		}
	}
	return run % (c.plan.MaxConsecutive + 1)
}

// faultName labels kinds in metrics and trace events.
func faultName(k faultKind) string {
	switch k {
	case faultLaunch:
		return "launch"
	case faultCorrupt:
		return "corrupt"
	case faultCrash:
		return "crash"
	case faultHang:
		return "hang"
	case faultSpike:
		return "spike"
	case faultStraggle:
		return "straggle"
	}
	return "none"
}

// attempt performs one launch attempt of key, consulting the seeded
// schedule for what (if anything) to inject. sk is the phase-scoped state
// key (equal to key before any drift); retryN is the retry-loop index of
// the surrounding policy (0 for a fresh measurement's first try); streak
// is the key's current streak of injected failures, which the attempt
// advances.
func (c *ChaosRunner) attempt(cfg *flags.Config, reps int, key, sk string, retryN int, streak *int) runner.Measurement {
	c.mu.Lock()
	n := c.attempts[sk]
	c.attempts[sk] = n + 1
	c.touch(sk)
	c.mu.Unlock()
	kind := c.faultFor(sk, n)
	switch {
	case !isFailureFault(kind):
		*streak = 0
	case *streak >= c.plan.MaxConsecutive:
		c.Telemetry.Counter("chaos_suppressed_total").Inc()
		kind, *streak = faultNone, 0
	default:
		*streak++
	}

	if kind != faultNone {
		c.Telemetry.Counter(`chaos_faults_total{kind="` + faultName(kind) + `"}`).Inc()
		c.Trace.Record(key, telemetry.Event{
			Kind: telemetry.EvFault, Attempt: n, Detail: faultName(kind),
		})
	}
	note := func(m runner.Measurement) runner.Measurement {
		runner.NoteAttempt(c.Telemetry, c.Trace, key, n, retryN > 0, m)
		return m
	}

	switch kind {
	case faultLaunch:
		return note(runner.Measurement{
			Key: key, Failed: true, Failure: runner.LaunchFlakeFailure,
			FailureMessage: fmt.Sprintf("faultinject: launch failed (attempt %d)", n),
			CostSeconds:    runner.LaunchOverheadSeconds,
		})
	case faultCorrupt:
		return note(runner.Measurement{
			Key: key, Failed: true, Failure: runner.CorruptReportFailure,
			FailureMessage: fmt.Sprintf("faultinject: report truncated (attempt %d)", n),
			CostSeconds:    c.plan.CrashSeconds + runner.LaunchOverheadSeconds,
		})
	case faultCrash:
		return note(runner.Measurement{
			Key: key, Failed: true, Failure: runner.InjectedCrashFailure,
			FailureMessage: fmt.Sprintf("faultinject: spurious crash (attempt %d)", n),
			CostSeconds:    c.plan.CrashSeconds + runner.LaunchOverheadSeconds,
		})
	case faultHang:
		// Really block, really get killed by the real deadline.
		deadline := c.HangDeadline
		if deadline <= 0 {
			deadline = 25 * time.Millisecond
		}
		timer := time.NewTimer(deadline)
		<-timer.C
		return note(runner.Measurement{
			Key: key, Failed: true, Failure: runner.InjectedHangFailure,
			FailureMessage: fmt.Sprintf("faultinject: hung, killed after %s (attempt %d)", deadline, n),
			CostSeconds:    c.plan.HangSeconds + runner.LaunchOverheadSeconds,
		})
	case faultSpike:
		m := c.inner.Measure(cfg, reps)
		if m.Failed || len(m.Walls) == 0 {
			return note(m)
		}
		// Scale copies: the slices share backing arrays with the clean
		// measurement the inner runner has just cached, and a replay of
		// that must stay clean.
		f := c.plan.SpikeFactor
		m.Walls, m.Pauses = slices.Clone(m.Walls), slices.Clone(m.Pauses)
		for i := range m.Walls {
			m.Walls[i] *= f
		}
		for i := range m.Pauses {
			m.Pauses[i] *= f
		}
		m.Mean *= f
		m.MeanPause *= f
		m.CostSeconds *= f
		return note(m)
	case faultStraggle:
		// The run itself is clean — the harness stalls delivering it. The
		// trial's cost balloons while the walls (and so the score) stay
		// untouched; the clean cost rides along so the session's straggler
		// watchdog can price the hedged duplicate.
		m := c.inner.Measure(cfg, reps)
		if m.Failed || len(m.Walls) == 0 {
			return note(m)
		}
		m.HedgeCostSeconds = m.CostSeconds
		m.CostSeconds *= c.plan.StraggleFactor
		return note(m)
	default:
		m := c.inner.Measure(cfg, reps)
		if m.FromCache {
			// The inner cache answered: no launch happened, so this is a
			// replay, not an attempt.
			runner.NoteCacheHit(c.Telemetry, c.Trace, key)
			return m
		}
		return note(m)
	}
}

func isFailureFault(k faultKind) bool {
	switch k {
	case faultLaunch, faultCorrupt, faultCrash, faultHang:
		return true
	}
	return false
}

// faultFor is the seeded schedule: a pure hash of (seed, key, attempt)
// mapped onto the plan's cumulative fault probabilities.
func (c *ChaosRunner) faultFor(key string, attempt int) faultKind {
	return c.plan.faultAt(hash01(c.seed, key, attempt))
}

// faultAt maps a draw u in [0, 1) onto the plan's cumulative fault
// probabilities, failure kinds first.
func (p Plan) faultAt(u float64) faultKind {
	for _, f := range []struct {
		p float64
		k faultKind
	}{
		{p.Launch, faultLaunch},
		{p.Corrupt, faultCorrupt},
		{p.Crash, faultCrash},
		{p.Hang, faultHang},
		{p.Spike, faultSpike},
		{p.Straggle, faultStraggle},
	} {
		if u < f.p {
			return f.k
		}
		u -= f.p
	}
	return faultNone
}

// maxDraw is the largest draw hash01 returns.
const maxDraw = float64(1<<53-1) / (1 << 53)

// hash01 maps (seed, key, attempt) to a uniform float in [0, 1).
func hash01(seed int64, key string, attempt int) float64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
		buf[8+i] = byte(uint64(attempt) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(key))
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}
