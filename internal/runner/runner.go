// Package runner executes measurement trials for the tuner: it runs a flag
// configuration against one workload for a number of repetitions and
// reports the aggregate, while accounting every simulated second against a
// virtual clock. The paper's tuning sessions are wall-clock budgeted
// (200 minutes per program); the virtual clock reproduces that economy —
// slow configurations eat more budget, crashed ones eat little — while the
// whole experiment finishes in real milliseconds.
//
// Every caching runner embeds one Harness, which owns the rules around a
// measurement — phase-scoped state keys, cache replay, fresh noise-rep
// indices per attempt, the retry loop, telemetry, clock charging — so a
// runner supplies only its attempt body. Four runners are built on it:
// InProcess calls the simulator directly and is what the experiments use;
// Subprocess launches the cmd/jvmsim binary with real -XX: command-line
// flags, exercising the same orchestration path the paper used against a
// real java launcher; Multi scores one configuration across a suite of
// workloads; and the dispatch package's Pool places attempts on a fleet of
// evaluator nodes. InProcess and the pool also follow phase-shifting
// workloads through one PhaseSwitch. The fault-injection layer
// (internal/faultinject) wraps any of them as a decorator runner.
package runner

import (
	"fmt"

	"repro/internal/flags"
	"repro/internal/jvmsim"
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
// whole round of distinct configurations in one call (the dispatch pool,
// through Harness.RunBatch). The contract is strict equivalence: MeasureBatch
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

	// Harness holds the retry policy, telemetry, clock, rep indices and
	// cache. The simulator itself never fails transiently, but a
	// fault-injection layer beneath this runner can.
	Harness

	phases PhaseSwitch
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
	phase, _, prof := r.phases.Current(r.profile)
	return r.Run(cfg, reps, phase, !r.DisableCache, func(repBase, reps int) Measurement {
		return EvalConfig(r.sim, prof, cfg, repBase, reps, r.TimeoutSeconds)
	})
}

// SetPhase implements PhaseSetter.
func (r *InProcess) SetPhase(phase int, shift jvmsim.PhaseShift) error {
	return r.phases.Set(phase, shift, r.sim, r.profile, &r.TimeoutSeconds)
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
	// model runs once and only the per-rep noise factor differs. The
	// buffer covers the default three reps; it stays small because every
	// fresh trial runs on a new goroutine whose stack this frame would
	// otherwise grow. More reps cost one allocation per measurement.
	var buf [4]jvmsim.Result
	results := sim.RunReps(cfg, p, repBase, reps, buf[:0])
	for i := range results {
		if !m.addRep(&results[i], timeoutSeconds) {
			break
		}
	}
	finalizeMeans(&m)
	return m
}

// addRep folds one repetition into m under the harness kill threshold
// timeoutSeconds (0 disables it): a run slower than the threshold is a
// TimeoutFailure charged the threshold, exactly like a real harness kill,
// and the first failure condemns the configuration. It reports whether
// another repetition should run.
func (m *Measurement) addRep(res *jvmsim.Result, timeoutSeconds float64) bool {
	cost := res.WallSeconds + LaunchOverheadSeconds
	failed, kind, msg := res.Failed, res.Failure, res.FailureMessage
	if timeoutSeconds > 0 && !failed && res.WallSeconds > timeoutSeconds {
		failed, kind = true, TimeoutFailure
		msg = fmt.Sprintf("killed after %.0fs (timeout)", timeoutSeconds)
		cost = timeoutSeconds + LaunchOverheadSeconds
	}
	m.CostSeconds += cost
	if failed {
		// One failure condemns the configuration; don't waste budget.
		m.Failed, m.Failure, m.FailureMessage = true, kind, msg
		return false
	}
	m.Walls = append(m.Walls, res.WallSeconds)
	m.Pauses = append(m.Pauses, res.MaxPauseSeconds)
	return true
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
