// Package runner executes measurement trials for the tuner: it runs a flag
// configuration against one workload for a number of repetitions and
// reports the aggregate, while accounting every simulated second against a
// virtual clock. The paper's tuning sessions are wall-clock budgeted
// (200 minutes per program); the virtual clock reproduces that economy —
// slow configurations eat more budget, crashed ones eat little — while the
// whole experiment finishes in real milliseconds.
//
// Two runners are provided. InProcess calls the simulator directly and is
// what the experiments use. Subprocess launches the cmd/jvmsim binary with
// real -XX: command-line flags, exercising the same orchestration path the
// paper used against a real java launcher.
package runner

import (
	"fmt"
	"sync"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TimeoutFailure marks runs cut off by the harness timeout. It extends the
// simulator's failure kinds.
const TimeoutFailure jvmsim.FailureKind = "timeout"

// Measurement is the aggregate outcome of measuring one configuration.
type Measurement struct {
	// Key is the canonical configuration key the measurement belongs to.
	Key string
	// Walls are the per-repetition wall times of successful repetitions.
	Walls []float64
	// Mean is the mean of Walls; meaningless when Failed.
	Mean float64
	// Pauses are the per-repetition maximum GC pause times (seconds) of
	// successful repetitions; MeanPause is their mean. They feed the
	// pause-latency tuning objective.
	Pauses    []float64
	MeanPause float64
	// Failed reports that the configuration produced no usable measurement.
	Failed bool
	// Failure classifies the first failure encountered.
	Failure jvmsim.FailureKind
	// FailureMessage is the diagnostic of the first failure.
	FailureMessage string
	// CostSeconds is the virtual time the measurement consumed, including
	// every failed attempt and retry backoff.
	CostSeconds float64
	// HedgeCostSeconds, when > 0, is the virtual cost a clean duplicate run
	// of this measurement would have taken. The chaos layer sets it when a
	// straggle fault stalls the primary run; the session's straggler
	// watchdog (core.HedgePolicy) uses it to resolve first-result-wins
	// hedging in virtual time.
	HedgeCostSeconds float64 `json:",omitempty"`
	// FromCache reports the measurement was replayed from the cache at
	// zero cost.
	FromCache bool
	// Attempts is the number of measurement attempts behind this result
	// (at least 1 for a fresh measurement; retries add more).
	Attempts int
	// Flakes is the number of transient failures absorbed by retries on
	// the way to this result.
	Flakes int
	// Transient reports that Failure is a transient kind and the retry
	// budget ran out before a definitive verdict: the configuration is not
	// condemned, and runners do not cache the failure.
	Transient bool
}

// Runner measures configurations against one workload.
type Runner interface {
	// Measure runs reps repetitions of cfg and returns the aggregate.
	Measure(cfg *flags.Config, reps int) Measurement
	// Workload returns the profile being measured.
	Workload() *workload.Profile
	// Elapsed returns total virtual seconds consumed so far.
	Elapsed() float64
}

// BatchMeasurer is optionally implemented by runners that can measure a
// whole round of distinct configurations in one call (the dispatch pool's
// batched transport). The contract is strict equivalence: MeasureBatch
// must return exactly what reps-identical concurrent Measure calls would
// — same measurements, same virtual cost, same caching — so the executor
// may use either path for the same session without changing a byte of its
// outputs. Callers pass configurations with distinct keys.
type BatchMeasurer interface {
	MeasureBatch(cfgs []*flags.Config, reps int) []Measurement
}

// LaunchOverheadSeconds is harness overhead per repetition (process launch,
// result collection) beyond the JVM's own run time. It is also what a
// launch that never produced a run costs. Exported for the chaos layer
// (internal/faultinject), which synthesizes launch failures.
const LaunchOverheadSeconds = 0.5

// InProcess measures via direct calls into the simulator.
// It is safe for concurrent use.
type InProcess struct {
	sim     *jvmsim.Simulator
	profile *workload.Profile

	// TimeoutSeconds cuts off runs; configurations slower than this count
	// as failures but still consume the full timeout from the budget,
	// exactly like a real harness kill. Zero means no timeout.
	TimeoutSeconds float64
	// DisableCache turns off config-key memoization.
	DisableCache bool
	// Retry bounds re-attempts of transient failures; the zero value means
	// the defaults (see RetryPolicy). The simulator itself never fails
	// transiently, but a fault-injection layer beneath this runner can.
	Retry RetryPolicy
	// Telemetry optionally receives the runner metric series (see
	// telemetry.go); Trace optionally receives per-attempt trace events.
	// Both are nil-safe no-ops when unset. When a ChaosRunner wraps this
	// runner, wire telemetry to the chaos layer instead.
	Telemetry *telemetry.Registry
	Trace     *telemetry.Tracer

	// State holds the clock, rep indices and cache, keyed through
	// PhaseKey (the identity in phase 0), and snapshots them.
	State

	mu sync.Mutex
	// phase and phased support phase-shifting workloads (see PhaseSetter):
	// phased is the effective profile measurements run against, nil until
	// the first SetPhase.
	phase  int
	phased *workload.Profile
	// timeout0 captures TimeoutSeconds at the first phase shift: phase
	// timeouts rescale from the base-profile threshold (see PhaseTimeout),
	// so repeated shifts never compound.
	timeout0    float64
	timeout0Set bool
}

// NewInProcess builds an in-process runner. The timeout defaults to 6× the
// default configuration's wall time, matching the paper's practice of
// killing configurations that are clearly hopeless.
func NewInProcess(sim *jvmsim.Simulator, p *workload.Profile) *InProcess {
	r := &InProcess{sim: sim, profile: p}
	r.TimeoutSeconds = 6 * sim.DefaultWall(flags.NewRegistry(), p, 1)
	return r
}

// Workload returns the profile being measured.
func (r *InProcess) Workload() *workload.Profile { return r.profile }

// Measure implements Runner.
func (r *InProcess) Measure(cfg *flags.Config, reps int) Measurement {
	if reps < 1 {
		reps = 1
	}
	key := cfg.Key()
	phase, prof := r.currentPhase()
	// Rep indices and the cache are scoped per (phase, config): after a
	// workload shift a configuration must be genuinely re-measured, not
	// answered from its stale pre-drift verdict. Externally the measurement
	// still carries the bare configuration key.
	sk := PhaseKey(phase, key)

	if !r.DisableCache {
		if m, ok := r.Cached(sk, reps); ok {
			NoteCacheHit(r.Telemetry, r.Trace, key)
			return m
		}
	}

	m := r.Retry.Run(func(n int) Measurement {
		m := EvalConfig(r.sim, prof, cfg, r.Reserve(sk, reps), reps, r.TimeoutSeconds)
		NoteAttempt(r.Telemetry, r.Trace, key, n, n > 0, m)
		return m
	})
	NoteMeasured(r.Telemetry, r.Trace, key, m)
	r.Settle(sk, m, !r.DisableCache)
	return m
}

// EvalConfig performs one measurement attempt of cfg: reps repetitions
// starting at noise-rep index repBase, each cut off at timeoutSeconds
// (0 disables the cut-off). It is the transport-independent evaluation
// core shared by InProcess, the dispatch layer's local evaluator, and the
// evald measurement server — the measurement content is a pure function of
// (simulator, profile, config, repBase, reps, timeout), which is what makes
// a remote evaluation byte-identical to a local one by construction.
// Retry, caching, rep-index allocation, and telemetry stay with the caller.
func EvalConfig(sim *jvmsim.Simulator, p *workload.Profile, cfg *flags.Config, repBase, reps int, timeoutSeconds float64) Measurement {
	m := Measurement{Key: cfg.Key()}
	// Score the whole repetition batch in one simulator call: the cost
	// model runs once and only the per-rep noise factor differs.
	var buf [16]jvmsim.Result
	for _, res := range sim.RunReps(cfg, p, repBase, reps, buf[:0]) {
		cost := res.WallSeconds + LaunchOverheadSeconds
		if timeoutSeconds > 0 && !res.Failed && res.WallSeconds > timeoutSeconds {
			res.Failed = true
			res.Failure = TimeoutFailure
			res.FailureMessage = fmt.Sprintf("killed after %.0fs (timeout)", timeoutSeconds)
			cost = timeoutSeconds + LaunchOverheadSeconds
		}
		m.CostSeconds += cost
		if res.Failed {
			if !m.Failed {
				m.Failed = true
				m.Failure = res.Failure
				m.FailureMessage = res.FailureMessage
			}
			// One failure condemns the configuration; don't waste budget.
			break
		}
		m.Walls = append(m.Walls, res.WallSeconds)
		m.Pauses = append(m.Pauses, res.MaxPauseSeconds)
	}
	finalizeMeans(&m)
	return m
}

// finalizeMeans fills Mean and MeanPause from the collected walls.
func finalizeMeans(m *Measurement) {
	if len(m.Walls) == 0 || m.Failed {
		return
	}
	sum, psum := 0.0, 0.0
	for i, w := range m.Walls {
		sum += w
		if i < len(m.Pauses) {
			psum += m.Pauses[i]
		}
	}
	m.Mean = sum / float64(len(m.Walls))
	if len(m.Pauses) > 0 {
		m.MeanPause = psum / float64(len(m.Pauses))
	}
}
