// Package core implements the paper's auto-tuner: budgeted, anytime search
// over the JVM's whole flag space for the configuration that minimizes a
// benchmark's wall time.
//
// The tuner is organized as a Session driving a Searcher against a
// runner.Runner. The Session owns the economy (the 200-virtual-minute
// budget, baseline measurement, best-so-far tracking, the convergence
// trace); Searchers own the proposal strategy. The paper's searcher is
// Hierarchical (hierarchical.go), which descends the flag tree: survey the
// top-level branches (collector × compilation mode), keep a beam of the
// best, then evolve the flags *active* within those branches. Baseline
// searchers — flat random, hill climbing, simulated annealing, a flat
// genetic algorithm, and a prior-work-style fixed-subset tuner — share the
// same interface so every comparison in the paper's evaluation runs under
// identical budget accounting.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/drift"
	"repro/internal/flags"
	"repro/internal/hierarchy"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Searcher proposes configurations and learns from their measurements.
// Implementations are not safe for concurrent use; a Session calls Propose
// and Observe only from its own goroutine. In multi-worker sessions the
// searcher may be asked for several proposals before any of them is
// observed, and observations arrive in virtual-completion order rather than
// proposal order — implementations must track outstanding proposals (see
// the pending maps in the built-in searchers) instead of assuming the next
// observation answers the latest proposal. Searchers that can exploit
// parallelism natively also implement BatchSearcher.
type Searcher interface {
	// Name identifies the strategy in reports.
	Name() string
	// Propose returns the next configuration to measure, or nil when the
	// searcher has nothing further to try.
	Propose(ctx *Context) *flags.Config
	// Observe delivers the measurement of a proposed configuration.
	Observe(ctx *Context, cfg *flags.Config, m runner.Measurement)
}

// Context is the session state visible to searchers.
type Context struct {
	// Reg is the flag registry being tuned over.
	Reg *flags.Registry
	// Tree is the flag hierarchy (used by the hierarchical searcher).
	Tree *hierarchy.Tree
	// Rng is the session's deterministic random source.
	Rng *rand.Rand
	// Objective is what the session minimizes (default throughput).
	Objective Objective
	// DefaultWall is the baseline (default configuration) wall time.
	DefaultWall float64
	// BestWall is the best mean wall time observed so far.
	BestWall float64
	// Best is the configuration that achieved BestWall.
	Best *flags.Config
	// Elapsed and Budget are virtual seconds consumed and allowed.
	Elapsed, Budget float64
	// Trial is the number of measurements taken so far.
	Trial int
}

// Score evaluates m under the session's objective.
func (c *Context) Score(m runner.Measurement) float64 {
	return c.Objective.Score(m)
}

// Score converts a measurement into the default (throughput) minimization
// objective: mean wall time, with failures scored +Inf.
func Score(m runner.Measurement) float64 {
	return ObjectiveThroughput.Score(m)
}

// Objective selects what a session minimizes.
type Objective string

// The tuning objectives.
const (
	// ObjectiveThroughput minimizes mean wall time — the paper's metric.
	ObjectiveThroughput Objective = "throughput"
	// ObjectivePause minimizes the maximum GC pause, the latency-tuning
	// use case (SLA-bound services); mean wall time only breaks ties.
	ObjectivePause Objective = "pause"
)

// Score evaluates a measurement under the objective (lower is better;
// failures are +Inf).
func (o Objective) Score(m runner.Measurement) float64 {
	if m.Failed || len(m.Walls) == 0 {
		return math.Inf(1)
	}
	switch o {
	case ObjectivePause:
		// The wall-time term breaks ties among pause-free configurations
		// and stops latency tuning from drifting into absurd slowness.
		return m.MeanPause + m.Mean*1e-4
	default:
		return m.Mean
	}
}

// TracePoint is one sample of the anytime convergence curve.
type TracePoint struct {
	// Elapsed is virtual tuning seconds consumed when the sample was taken.
	Elapsed float64
	// BestWall is the best mean wall time known at that moment.
	BestWall float64
	// Trial is the measurement count at that moment.
	Trial int
	// Flakes is the cumulative count of transient failures absorbed by
	// retries up to that moment.
	Flakes int
}

// AttemptRecord summarizes one configuration's measurement attempts across a
// session — how many times it was (re)measured, how many launch attempts
// that took, and how it ultimately fared. Cache replays involve no launches
// and are not recorded.
type AttemptRecord struct {
	// Key identifies the configuration.
	Key string
	// Trials is the number of fresh (non-cached) measurements delivered.
	Trials int
	// Attempts is the total launch attempts across those trials, retries
	// included.
	Attempts int
	// Flakes is how many of those attempts failed transiently and were
	// retried (or exhausted the retry budget).
	Flakes int
	// Failed and Transient describe the latest verdict; Failure names its
	// kind when Failed.
	Failed    bool
	Transient bool
	Failure   jvmsim.FailureKind
}

// Outcome is the result of one tuning session.
//
// Under the default throughput objective DefaultWall/BestWall are mean wall
// seconds; under ObjectivePause they are pause-objective scores (seconds of
// maximum GC pause, plus a small wall-time tiebreak) and ImprovementPct is
// the relative score reduction. BaseMeasurement and BestMeasurement carry
// both walls and pauses either way.
type Outcome struct {
	Workload       string
	Searcher       string
	Objective      Objective
	DefaultWall    float64
	BestWall       float64
	Best           *flags.Config
	ImprovementPct float64
	Speedup        float64
	Trials         int
	Failures       int
	CacheHits      int
	Elapsed        float64
	// Flakes is the total count of transient failures absorbed by retries;
	// Attempts is the total launch attempts (every trial costs at least
	// one); TransientFailures counts trials that were still failing
	// transiently when the retry budget ran out (the configuration is NOT
	// condemned — a later proposal may re-measure it).
	Flakes            int
	Attempts          int
	TransientFailures int
	// Degraded reports the session stopped early — virtual-budget expiry,
	// trial-budget expiry, wall-clock expiry, best-effort cancellation, or
	// a stall — and Best is the best-so-far answer rather than a completed
	// search; DegradedReason says why in one sentence. A session whose
	// searcher exhausted its strategy inside the budget is complete, not
	// degraded.
	Degraded       bool
	DegradedReason string
	// Quarantined counts proposals the failure quarantine rejected
	// unmeasured at zero cost (they still reach the searcher as failed
	// observations). Hedges and HedgeWins count straggler-watchdog
	// resolutions; a win means the hedged duplicate finished first and the
	// trial was charged the duplicate's path instead of the straggler's.
	Quarantined int
	Hedges      int
	HedgeWins   int
	// AttemptHistory summarizes per-configuration attempt accounting,
	// sorted by configuration key.
	AttemptHistory []AttemptRecord
	// Epochs is the per-epoch history of a drift-enabled session: one entry
	// per re-tuning epoch, each carrying the epoch's best and the drift
	// provenance that closed it. Nil when the session ran without a
	// DriftPolicy (a stationary session is one implicit epoch).
	Epochs []EpochOutcome
	Trace  []TracePoint
	// BaseMeasurement and BestMeasurement are the default config's and the
	// winner's raw measurements (walls and pauses).
	BaseMeasurement runner.Measurement
	BestMeasurement runner.Measurement
}

// DefaultBudgetSeconds is the paper's tuning budget: 200 minutes.
const DefaultBudgetSeconds = 200 * 60

// Session is one budgeted tuning run of a searcher on a workload.
type Session struct {
	// Runner measures configurations (and owns the virtual clock).
	Runner runner.Runner
	// Searcher is the proposal strategy.
	Searcher Searcher
	// Reg is the registry to tune; defaults to the standard catalog.
	Reg *flags.Registry
	// Tree is the hierarchy; defaults to the standard tree over Reg.
	Tree *hierarchy.Tree
	// BudgetSeconds is the virtual tuning budget; defaults to 200 minutes.
	BudgetSeconds float64
	// Reps is the repetitions per trial; defaults to 3.
	Reps int
	// Seed drives all randomness; sessions with equal inputs and seeds
	// produce identical outcomes.
	Seed int64
	// MaxTrials optionally bounds the number of measurements (0 = no cap).
	// A session stopped by this trial budget returns best-so-far marked
	// Degraded, exactly like virtual-budget expiry.
	MaxTrials int
	// RealBudget optionally bounds the session in wall-clock time: at the
	// first round boundary past the deadline the session stops and returns
	// best-so-far marked Degraded. Unlike the virtual budget it depends on
	// real scheduling, so two identical runs may stop at different trials —
	// it is the operator's safety net, not the paper's protocol knob (that
	// is BudgetSeconds).
	RealBudget time.Duration
	// BestEffort makes cancellation graceful: a session whose Ctx is
	// canceled returns the best-so-far outcome marked Degraded instead of
	// an error (cancellation before the baseline still errors — there is no
	// answer to return yet).
	BestEffort bool
	// Hedge, when non-nil, arms the straggler watchdog: trials whose
	// virtual cost blows a percentile-based deadline are hedged with a
	// duplicate dispatch, first result wins, loser canceled and accounted
	// in telemetry only. Entirely virtual-time-driven — fixed-seed sessions
	// stay byte-deterministic at any worker count.
	Hedge *HedgePolicy
	// Quarantine, when non-nil, arms the failure circuit breaker: flag-
	// hierarchy subtrees whose recent trials keep failing deterministically
	// are quarantined for a cooldown, their proposals rejected at zero cost
	// so chaos-heavy searches spend budget in viable regions.
	Quarantine *QuarantinePolicy
	// now is the wall clock RealBudget reads; tests inject it. nil means
	// time.Now.
	now func() time.Time
	// Objective is what the session minimizes; default ObjectiveThroughput.
	Objective Objective
	// Workers is the number of parallel evaluation slots (default 1, the
	// paper's single-machine setup). With W > 1 the session is a tuning
	// farm: each round it runs up to W Runner.Measure calls at once,
	// charges each to a virtual slot for its virtual cost, and delivers
	// the observations in virtual-completion order. The session measures
	// a round's first trial on its own goroutine and owns W-1 measuring
	// goroutines for the rest, started once and stopped however the
	// session ends; a runner.BatchMeasurer runner gets a round in one
	// MeasureBatch call instead. Trials start on the earliest-free slot,
	// so the budget bounds the *makespan* rather than total machine time.
	// The Runner must be safe for concurrent use (all built-in runners
	// are). Sessions stay deterministic for a fixed seed at any W; see
	// executor.go.
	Workers int
	// Ctx optionally cancels the session between evaluation rounds. A
	// canceled session returns the context's error; measurements already
	// in flight complete first (cancellation granularity is one round).
	Ctx context.Context
	// OnProgress, when non-nil, is called from the session goroutine after
	// every delivered observation with the trace point just recorded —
	// live progress for long sessions (the HTTP API's job status).
	OnProgress func(TracePoint)
	// Telemetry optionally receives session metrics (session_* series and
	// the searcher_propose_seconds histogram); Trace optionally receives the
	// structured event stream (baseline/proposal/observe/barrier, plus the
	// runner-side events it commits at delivery time). Share the same
	// instances with the runner's harness: the session
	// stamps their per-key pending events with virtual completion times,
	// which is what makes the trace byte-deterministic at any worker count.
	// Both are nil-safe no-ops when unset.
	Telemetry *telemetry.Registry
	Trace     *telemetry.Tracer
	// Checkpoint, when non-nil, makes the session crash-safe: at round
	// boundaries on the keeper's cadence the session snapshots its state —
	// baseline, the ordered log of delivered measurements, the incumbent
	// best, and the runner's serialized caches — and the keeper persists it
	// off the session goroutine (workers never block on the disk). Requires
	// a Runner implementing runner.StateSnapshotter.
	Checkpoint *checkpoint.Keeper
	// Resume, when non-nil, continues the session a previous checkpoint
	// describes. The snapshot's fingerprint must match this session's
	// options exactly; the session then replays the recorded measurement
	// log through the searcher (reconstructing searcher and RNG state
	// without re-measuring) and restores the runner's caches, so the
	// continued run converges to the byte-identical outcome of the
	// uninterrupted one. Divergence — a recorded trial whose key differs
	// from what the resumed engine proposes — fails the session rather than
	// splicing mismatched histories. With Checkpoint set too, the keeper
	// continues from the snapshot (see checkpoint.Keeper.Resume).
	Resume *checkpoint.Snapshot
	// Transfer fingerprints the warm-start priors injected into Searcher
	// (empty when the session starts cold). Warm-started sessions propose
	// different configurations than cold ones, so the fingerprint goes into
	// the checkpoint metadata: a checkpoint taken warm refuses to resume
	// cold (or under different priors), where replay would diverge.
	Transfer string
	// Phases optionally scripts workload drift: at each scheduled trial
	// boundary the runner's workload shifts to a new phase (the runner must
	// implement runner.PhaseSetter when the schedule has shifts). Shifts
	// take effect at round barriers, so they are deterministic per
	// (seed, workers). Nil means a stationary workload.
	Phases *jvmsim.PhaseSchedule
	// Drift, when non-nil, arms drift detection and live re-tuning: a
	// confirmed upward shift in the delivered-score stream closes the
	// current epoch and opens a new one with a rebuilt, warm-started
	// searcher (see DriftPolicy). Requires NewSearcher. A session may
	// script Phases without arming Drift — that is the oblivious tuner the
	// re-tuned one is evaluated against — and may arm Drift without Phases
	// (the false-positive guard: a stationary session must never re-tune).
	Drift *DriftPolicy
	// NewSearcher builds a fresh searcher for each re-tuning epoch; it must
	// produce the same strategy as Searcher (checkpoint fingerprints record
	// one searcher name for the whole session). Required when Drift is set.
	NewSearcher func() Searcher
	// EpochPriors, when non-nil, contributes extra warm-start priors to
	// each re-tuning epoch — typically transfer-store hits for the drifted
	// workload's fingerprint. Called once per epoch transition with the new
	// epoch's index and workload phase; the demoted incumbent is always
	// injected ahead of these. Priors must be built over the session's
	// registry. Resumed sessions replay the checkpoint's recorded priors
	// instead of calling this again.
	EpochPriors func(epoch, phase int) []PriorSample
}

// Run executes the session to budget exhaustion and returns the outcome.
func (s *Session) Run() (*Outcome, error) {
	if s.Runner == nil || s.Searcher == nil {
		return nil, fmt.Errorf("core: session needs a Runner and a Searcher")
	}
	reg := s.Reg
	if reg == nil {
		reg = flags.NewRegistry()
	}
	tree := s.Tree
	if tree == nil {
		tree = hierarchy.Build(reg)
	}
	budget := s.BudgetSeconds
	if budget <= 0 {
		budget = DefaultBudgetSeconds
	}
	reps := s.Reps
	if reps < 1 {
		reps = 3
	}

	objective := s.Objective
	if objective == "" {
		objective = ObjectiveThroughput
	}
	ctx := &Context{
		Reg:       reg,
		Tree:      tree,
		Rng:       rand.New(rand.NewSource(s.Seed)),
		Budget:    budget,
		Objective: objective,
	}
	out := &Outcome{
		Workload: s.Runner.Workload().Name,
		Searcher: s.Searcher.Name(),
	}

	workers := s.Workers
	if workers < 1 {
		workers = 1
	}
	runCtx := s.Ctx
	if runCtx == nil {
		runCtx = context.Background()
	}
	if err := runCtx.Err(); err != nil {
		return nil, fmt.Errorf("core: session canceled before baseline: %w", err)
	}
	// slotFree[i] is the virtual time at which evaluation slot i becomes
	// available. With one worker this degenerates to a running total.
	slotFree := make([]float64, workers)

	// Drift setup: validate the phase schedule against the runner and the
	// detector policy against its own invariants before any measurement.
	ds := &driftState{}
	if s.Phases != nil && len(s.Phases.Shifts) > 0 {
		if err := s.Phases.Validate(); err != nil {
			return nil, err
		}
		setter, ok := s.Runner.(runner.PhaseSetter)
		if !ok {
			return nil, fmt.Errorf("core: runner %T cannot phase-shift workloads (no SetPhase)", s.Runner)
		}
		ds.phases, ds.setter = s.Phases, setter
	}
	if s.Drift != nil {
		if err := s.Drift.Detector.Validate(); err != nil {
			return nil, err
		}
		if s.NewSearcher == nil {
			return nil, fmt.Errorf("core: Drift needs NewSearcher to rebuild the searcher per epoch")
		}
		ds.det = drift.New(s.Drift.Detector)
	}

	// Durability setup: checkpointing and resuming both need a runner that
	// can serialize its mutable state, and both share the session
	// fingerprint that guards against resuming under different options.
	var snapRunner runner.StateSnapshotter
	var meta checkpoint.Meta
	if s.Checkpoint != nil || s.Resume != nil {
		sr, ok := s.Runner.(runner.StateSnapshotter)
		if !ok {
			return nil, fmt.Errorf("core: runner %T cannot snapshot state for checkpoint/resume", s.Runner)
		}
		snapRunner = sr
		meta = checkpoint.Meta{
			Workload:      out.Workload,
			Searcher:      out.Searcher,
			Objective:     string(objective),
			Runner:        runnerFingerprint(s.Runner),
			Seed:          s.Seed,
			BudgetSeconds: budget,
			Reps:          reps,
			Workers:       workers,
			MaxTrials:     s.MaxTrials,
			Robustness:    robustnessFingerprint(s.Hedge, s.Quarantine),
			Transfer:      s.Transfer,
			Drift:         driftFingerprint(s.Drift, s.Phases),
		}
	}

	// Baseline: the default configuration, measured under the same economy.
	// A resumed session takes the recorded baseline instead of re-measuring:
	// the restored runner cache would answer a fresh Measure at zero cost,
	// which would corrupt the budget accounting the original run did.
	history := make(map[string]*AttemptRecord)
	def := flags.NewConfig(reg)
	defKey := def.Key()
	var base runner.Measurement
	replay := make(map[int]checkpoint.TrialRecord)
	epochReplay := make(map[int]checkpoint.EpochRecord)
	if s.Resume != nil {
		snap := s.Resume
		if err := snap.Meta.Check(meta); err != nil {
			return nil, err
		}
		if snap.Trial != len(snap.Trials) {
			return nil, fmt.Errorf("%w: snapshot claims %d trials but records %d",
				checkpoint.ErrCorrupt, snap.Trial, len(snap.Trials))
		}
		if snap.Baseline.Key != defKey {
			return nil, fmt.Errorf("core: resume diverged: checkpoint baseline measured %q, session default is %q",
				snap.Baseline.Key, defKey)
		}
		if err := snapRunner.RestoreState(snap.RunnerState); err != nil {
			return nil, err
		}
		base = snap.Baseline
		for _, rec := range snap.Trials {
			replay[rec.Seq] = rec
		}
		for _, rec := range snap.Epochs {
			if rec.Trial > snap.Trial {
				return nil, fmt.Errorf("%w: epoch %d opened at trial %d but snapshot records only %d trials",
					checkpoint.ErrCorrupt, rec.Epoch, rec.Trial, snap.Trial)
			}
			epochReplay[rec.Epoch] = rec
		}
		s.Checkpoint.Resume(snap)
		s.Telemetry.Counter("checkpoint_resumes_total").Inc()
		s.Telemetry.Counter("checkpoint_resumed_trials_total").Add(uint64(len(snap.Trials)))
	} else {
		base = s.Runner.Measure(def, reps)
	}
	if base.Failed {
		return nil, fmt.Errorf("core: default configuration fails on %s: %s",
			out.Workload, base.FailureMessage)
	}
	out.recordAttempts(history, defKey, base)
	ctx.DefaultWall = objective.Score(base)
	ctx.Best, ctx.BestWall = def, ctx.DefaultWall
	slotFree[0] = base.CostSeconds
	ctx.Elapsed = base.CostSeconds
	out.DefaultWall = ctx.DefaultWall
	out.Objective = objective
	out.BaseMeasurement = base
	out.BestMeasurement = base
	s.Telemetry.Gauge("session_budget_virtual_seconds").Set(budget)
	s.Telemetry.Gauge("session_workers").Set(float64(workers))
	// Stamp the runner-side events of the baseline measurement, then mark
	// the baseline itself.
	s.Trace.Commit(defKey, base.CostSeconds)
	s.Trace.Emit(telemetry.Event{
		T: base.CostSeconds, Kind: telemetry.EvBaseline, Key: defKey,
		Cost: base.CostSeconds, Score: ctx.DefaultWall,
	})
	tp := TracePoint{Elapsed: ctx.Elapsed, BestWall: ctx.BestWall, Flakes: out.Flakes}
	out.Trace = append(out.Trace, tp)
	if s.OnProgress != nil {
		s.OnProgress(tp)
	}

	var ck *ckState
	if snapRunner != nil {
		ck = &ckState{keeper: s.Checkpoint, meta: meta, base: base, snap: snapRunner,
			replay: replay, epochReplay: epochReplay}
	}
	rob := &robState{now: s.now}
	if rob.now == nil {
		rob.now = time.Now
	}
	if s.RealBudget > 0 {
		rob.deadline = rob.now().Add(s.RealBudget)
	}
	if s.Hedge != nil {
		rob.hg = newHedger()
		rob.hg.observe(base.CostSeconds)
	}
	if s.Quarantine != nil {
		rob.quar = newQuarantine(tree, s.Telemetry, s.Trace)
	}
	if err := s.runLoop(runCtx, ctx, out, slotFree, reps, budget, history, ck, rob, ds); err != nil {
		return nil, err
	}
	// The session ended on its own terms, so its file must hold every
	// delivered trial; the keeper drops the snapshot when the file already
	// does (a last write at this trial, or a finished file resumed).
	if ck != nil && ck.keeper != nil {
		s.writeCheckpoint(ck, ctx)
	}
	if ds.det != nil {
		// Close the final (still-open) epoch so the report always accounts
		// every trial to an epoch; no drift closed it, so no provenance.
		ds.closeEpoch(ctx, out, nil)
	}
	if rob.hg != nil {
		out.Hedges, out.HedgeWins = rob.hg.hedges, rob.hg.wins
		s.Telemetry.Gauge("session_hedge_saved_virtual_seconds").Set(rob.hg.saved)
	}
	out.AttemptHistory = make([]AttemptRecord, 0, len(history))
	for _, rec := range history {
		out.AttemptHistory = append(out.AttemptHistory, *rec)
	}
	sort.Slice(out.AttemptHistory, func(i, j int) bool {
		return out.AttemptHistory[i].Key < out.AttemptHistory[j].Key
	})
	// Report the makespan: the time the busiest slot finishes.
	for _, f := range slotFree {
		if f > ctx.Elapsed {
			ctx.Elapsed = f
		}
	}

	s.Telemetry.Gauge("session_elapsed_virtual_seconds").Set(ctx.Elapsed)
	s.Telemetry.Gauge("session_best_score").Set(ctx.BestWall)

	out.Best = ctx.Best
	out.BestWall = ctx.BestWall
	out.Trials = ctx.Trial
	out.Elapsed = ctx.Elapsed
	out.ImprovementPct = stats.ImprovementPct(out.DefaultWall, out.BestWall)
	out.Speedup = stats.Speedup(out.DefaultWall, out.BestWall)
	return out, nil
}

// recordAttempts folds a fresh measurement into the session's flake
// accounting. Cache replays involve no launches and are skipped.
func (o *Outcome) recordAttempts(history map[string]*AttemptRecord, key string, m runner.Measurement) {
	if m.FromCache {
		return
	}
	attempts := m.Attempts
	if attempts < 1 {
		attempts = 1
	}
	o.Flakes += m.Flakes
	o.Attempts += attempts
	if m.Transient {
		o.TransientFailures++
	}
	rec := history[key]
	if rec == nil {
		rec = &AttemptRecord{Key: key}
		history[key] = rec
	}
	rec.Trials++
	rec.Attempts += attempts
	rec.Flakes += m.Flakes
	rec.Failed = m.Failed
	rec.Transient = m.Transient
	rec.Failure = m.Failure
}

// BestAt returns the best wall time known at the given virtual time, for
// convergence reporting. Times before the baseline measurement return the
// baseline. The scan tolerates out-of-order completion times from
// multi-worker sessions.
func (o *Outcome) BestAt(elapsed float64) float64 {
	best := o.DefaultWall
	for _, tp := range o.Trace {
		if tp.Elapsed <= elapsed && tp.BestWall < best {
			best = tp.BestWall
		}
	}
	return best
}
