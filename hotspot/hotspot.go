// Package hotspot is the public API of the HotSpot auto-tuner
// reproduction. It wraps the internal engine — the 600+-flag registry, the
// flag hierarchy, the simulated HotSpot VM, and the budgeted searchers —
// behind a small surface:
//
//	result, err := hotspot.Tune(hotspot.Options{Benchmark: "h2"})
//	fmt.Println(result.ImprovementPct, result.CommandLine)
//
// Tune runs a complete 200-virtual-minute tuning session (the paper's
// budget) and returns the best configuration found, the improvement over
// the default configuration, and the full convergence trace.
package hotspot

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/faultinject"
	"repro/internal/flags"
	"repro/internal/hierarchy"
	"repro/internal/jvmsim"
	"repro/internal/persist"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// MetricsRegistry collects tuning-farm metrics (counters, gauges,
// histograms) and exposes them in Prometheus text format; see
// internal/telemetry. Pass one via Options.Telemetry.
type MetricsRegistry = telemetry.Registry

// Tracer records the structured event stream of a session — proposals,
// attempts, retries, injected faults, observations — with virtual-time
// stamps. Its JSONL output is byte-deterministic for a fixed seed at any
// worker count. Pass one via Options.Trace.
type Tracer = telemetry.Tracer

// TraceEvent is one entry of a Tracer's event stream.
type TraceEvent = telemetry.Event

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.New() }

// NewTracer returns a trace recorder holding up to capacity events
// (0 means the default, 16384; the buffer drops oldest when full).
func NewTracer(capacity int) *Tracer { return telemetry.NewTracer(capacity) }

// Profile describes a benchmark program; see the field documentation in
// the exported type for how each parameter shapes simulated behaviour.
type Profile = workload.Profile

// Config is a JVM flag configuration.
type Config = flags.Config

// TracePoint is one sample of a session's best-so-far curve.
type TracePoint = core.TracePoint

// Options configures a tuning session. The zero value tunes nothing;
// at minimum set Benchmark or Workload.
type Options struct {
	// Benchmark names a built-in workload (see Benchmarks()). Ignored when
	// Workload is set.
	Benchmark string
	// Workload supplies a custom profile instead of a built-in one.
	Workload *Profile
	// Searcher selects the strategy (see Searchers()); default
	// "hierarchical", the paper's tuner.
	Searcher string
	// BudgetMinutes is the virtual tuning budget; default 200, the paper's.
	BudgetMinutes float64
	// Reps is the repetitions per measurement; default 3, at most
	// dispatch.MaxReps (see CheckOptions).
	Reps int
	// Seed drives all randomness; equal inputs and seeds reproduce
	// identical sessions.
	Seed int64
	// Noise overrides run-to-run measurement noise (relative stddev);
	// negative means the default (1.5%).
	Noise float64
	// JVMSimPath, when non-empty, measures through the cmd/jvmsim binary at
	// this path via subprocesses instead of in-process calls.
	JVMSimPath string
	// Nodes, when non-empty, dispatches measurements to these evald
	// evaluator nodes ("host:port" or full URLs) over HTTP/JSON instead of
	// measuring in-process — the distributed evaluation plane
	// (internal/dispatch). Trials are sharded across the fleet with
	// work-stealing and node-death re-dispatch; for a fixed Seed the
	// session's results, traces, and checkpoints are byte-identical to an
	// in-process run. Mutually exclusive with JVMSimPath. See
	// docs/DISTRIBUTED.md.
	Nodes []string
	// FleetStatePath, with Nodes, journals fleet membership to this file
	// so a killed controller resumes with its fleet view intact (dead
	// nodes stay suspect, joined nodes are re-dialed).
	FleetStatePath string
	// FleetListen, when non-empty, serves the fleet registration endpoints
	// on this address so evald nodes join and leave at runtime
	// (evald -join): registrations become pool members, periodic
	// re-registration is the liveness lease, and deregistration drains the
	// node immediately. Works with or without a static Nodes list — alone
	// it starts an empty dynamic fleet that waits for its first join.
	FleetListen string
	// DispatchBatch, with a distributed session, ships up to this many
	// trials per evaluate-batch round trip; 0 = one trial per round trip.
	// Purely a transport knob: results are byte-identical at any batch
	// size.
	DispatchBatch int
	// TLSCert/TLSKey/TLSCA and AuthToken secure the distributed wire:
	// mutual TLS between controller and nodes (cert+key presented, peers
	// verified against the CA) and a shared bearer token demanded on every
	// request. Both fail closed. They apply to evaluate dispatch and the
	// FleetListen registration endpoints alike.
	TLSCert, TLSKey, TLSCA string
	AuthToken              string
	// Workers is the number of parallel evaluation slots; default 1 (the
	// paper's single-machine setup), at most MaxWorkers. With Workers > 1
	// the session measures up to that many configurations concurrently on
	// real goroutines while staying deterministic for a fixed Seed. See
	// core.Session.Workers.
	Workers int
	// Objective selects what to minimize: "throughput" (default, the
	// paper's metric) or "pause" (worst GC pause, for latency tuning).
	Objective string
	// Chaos, when non-empty, runs the session under the deterministic
	// fault-injection layer: a named scenario (see ChaosScenarios()) or a
	// fault-plan DSL spec like "launch=0.1,spike=0.2". Faults are scheduled
	// by Seed, so chaos sessions are exactly as reproducible as clean ones.
	Chaos string
	// RetryAttempts bounds attempts per measurement for transient failures
	// (flaky launches, corrupt reports, injected faults); 0 means the
	// default, 3. Deterministic failures are never retried.
	RetryAttempts int
	// MaxTrials caps the number of trials on top of the virtual budget;
	// expiry returns the best-so-far result marked Result.Degraded. 0 means
	// no cap.
	MaxTrials int
	// RealBudgetSeconds caps the session's real (wall-clock) runtime on top
	// of the virtual budget. When it expires the session stops and returns
	// the best configuration found so far, marked Result.Degraded — a
	// budget kill is a graceful degradation, not an error. 0 means no cap.
	RealBudgetSeconds float64
	// BestEffort makes context cancellation degrade instead of fail: a
	// canceled session returns its best-so-far result with Result.Degraded
	// set rather than the context's error.
	BestEffort bool
	// Hedge enables straggler hedging (core.HedgePolicy):
	// trials whose virtual cost exceeds a percentile-based deadline are
	// charged as if a hedged duplicate dispatch had finished first.
	Hedge bool
	// Quarantine enables the failure circuit breaker
	// (core.QuarantinePolicy): flag-hierarchy subtrees with a high
	// deterministic-failure density are temporarily rejected at zero
	// virtual cost.
	Quarantine bool
	// Drift arms workload-drift detection and live re-tuning (see
	// docs/DRIFT.md): the session watches delivered scores with a
	// Page–Hinkley detector, and a confirmed drift opens a new tuning epoch
	// — the stale winner is demoted to a candidate, the searcher is rebuilt
	// warm-started from it (plus transfer priors when TransferDir is set),
	// and the hedging/quarantine machinery restarts for the new regime.
	// Per-epoch outcomes land in Result.Epochs. The workload actually
	// drifts when the chaos plan schedules it (drift-at=N, or the
	// drift-midrun/drift-storm scenarios); with a stationary workload the
	// detector is calibrated never to fire.
	Drift bool
	// DriftSensitivity scales the detector's decision threshold: 1 (or 0)
	// is the calibrated default, higher fires on weaker evidence, lower
	// needs more persistent evidence. Requires Drift.
	DriftSensitivity float64
	// OnProgress, when non-nil, receives a live snapshot after every
	// measurement — trials so far, virtual time consumed, and the best
	// result yet. It is called from the session's goroutine.
	OnProgress func(Progress)
	// Telemetry, when non-nil, receives the session's metrics: the
	// session_* and searcher_* series plus the runner_* (and, under Chaos,
	// chaos_*) series from the measurement layer. Expose it with
	// MetricsRegistry.WritePrometheus.
	Telemetry *MetricsRegistry
	// Trace, when non-nil, records the session's structured event stream;
	// write it out with Tracer.WriteJSONL. For a fixed Seed the stream is
	// byte-identical across runs at any Workers count.
	Trace *Tracer
	// CheckpointPath, when non-empty, makes the session crash-safe: its
	// state is periodically snapshotted to this file (atomically rotated,
	// CRC-guarded), so a killed run can continue with Resume instead of
	// starting over. See docs/DURABILITY.md.
	CheckpointPath string
	// CheckpointEveryTrials is the snapshot cadence in completed trials;
	// 0 means the default (8).
	CheckpointEveryTrials int
	// Resume continues the session recorded at CheckpointPath. The
	// checkpoint's options fingerprint must match this session's; a missing
	// checkpoint file simply starts fresh (determinism makes the outcomes
	// identical either way), while a corrupt one fails closed. A resumed
	// fixed-seed run converges to the byte-identical result of an
	// uninterrupted one.
	Resume bool
	// TransferDir, when non-empty, names the cross-workload knowledge-base
	// directory (see docs/TRANSFER.md): the session warm-starts its search
	// from the best configurations stored for the nearest workload
	// fingerprints, and records its own winner for future sessions. Empty
	// disables transfer entirely — no store is opened and the session is
	// byte-identical to one on a build without the subsystem.
	TransferDir string
	// TransferK is the number of nearest stored fingerprints to draw
	// warm-start priors from; 0 means the default (3).
	TransferK int
}

// SessionCrash is the panic value of the crash-point fault
// (chaos "crash-at=N"): a simulated hard kill of the session for
// checkpoint/resume drills. cmd/autotune recovers it and exits with a
// distinct status, leaving the checkpoint file behind.
type SessionCrash = faultinject.SessionCrash

// Progress is a live snapshot of a running tuning session.
type Progress struct {
	// Trials is the number of measurements delivered so far.
	Trials int
	// ElapsedMinutes is the virtual tuning time consumed so far.
	ElapsedMinutes float64
	// BestWall is the best objective score observed so far.
	BestWall float64
	// ImprovementPct is the improvement over the default configuration so
	// far (0 until something beats the baseline).
	ImprovementPct float64
	// Flakes is the cumulative count of transient failures absorbed by
	// retries so far.
	Flakes int
}

// Result is the outcome of a tuning session.
type Result struct {
	// Benchmark is the tuned workload's name.
	Benchmark string
	// Searcher is the strategy used.
	Searcher string
	// DefaultWall and BestWall are mean wall seconds before and after.
	DefaultWall, BestWall float64
	// ImprovementPct is 100·(default−best)/default, the paper's metric.
	ImprovementPct float64
	// Speedup is default/best.
	Speedup float64
	// Best is the winning configuration. It is omitted from JSON
	// serializations; CommandLine carries the same information portably.
	Best *Config `json:"-"`
	// CommandLine is Best's canonical form rendered as java-style
	// arguments; parsing it rebuilds a configuration with Best's Key.
	CommandLine []string
	// Collector is the garbage collector Best selects.
	Collector string
	// Trials, Failures and CacheHits describe the session's economy.
	Trials, Failures, CacheHits int
	// Flakes counts transient failures absorbed by retries; Attempts is
	// total launch attempts (≥ Trials); TransientFailures counts trials
	// still failing transiently after retry exhaustion (the configuration
	// is not condemned).
	Flakes, Attempts, TransientFailures int
	// Chaos names the fault plan the session ran under ("none" when off).
	Chaos string
	// Degraded reports that the session ended early — budget expiry,
	// wall-clock expiry, best-effort cancellation, or a stall — and the
	// result is the best found by then, not a completed search.
	// DegradedReason says why, verbatim from the engine. Both serialize
	// under snake_case keys like every documented Result extension;
	// UnmarshalJSON still accepts the legacy Go-field-name keys older
	// serializations (farm journals) used.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Quarantined counts trials rejected by the failure circuit breaker;
	// Hedges counts straggling trials that armed a hedge, HedgeWins the
	// hedges that beat their primary.
	Quarantined, Hedges, HedgeWins int
	// ElapsedMinutes is the virtual tuning time consumed.
	ElapsedMinutes float64
	// Trace is the anytime convergence curve (virtual seconds → best wall).
	Trace []TracePoint
	// Transfer is the warm-start provenance when Options.TransferDir was
	// set; nil for cold sessions.
	Transfer *TransferInfo `json:"transfer,omitempty"`
	// Epochs is the per-epoch breakdown of a drift-enabled session
	// (Options.Drift): each confirmed workload drift closes an epoch with
	// its provenance. Nil when drift detection is off.
	Epochs []Epoch `json:"epochs,omitempty"`

	outcome *core.Outcome
}

// UnmarshalJSON decodes a serialized Result. It exists for one
// compatibility shim: Degraded and DegradedReason serialized under their Go
// field names before they were tagged snake_case, and "DegradedReason" does
// not case-fold onto "degraded_reason" — a durable farm replaying an older
// journal would silently drop the reason. The legacy keys are accepted
// whenever the tagged ones are absent.
func (r *Result) UnmarshalJSON(b []byte) error {
	type plain Result // shed methods so the inner decode cannot recurse
	if err := json.Unmarshal(b, (*plain)(r)); err != nil {
		return err
	}
	var legacy struct {
		Degraded       *bool   `json:"Degraded"`
		DegradedReason *string `json:"DegradedReason"`
	}
	if err := json.Unmarshal(b, &legacy); err != nil {
		return err
	}
	if !r.Degraded && legacy.Degraded != nil {
		r.Degraded = *legacy.Degraded
	}
	if r.DegradedReason == "" && legacy.DegradedReason != nil {
		r.DegradedReason = *legacy.DegradedReason
	}
	return nil
}

// Save writes the result as JSON to path; the stored command line
// round-trips back into a configuration via LoadResult.
func (r *Result) Save(path string) error {
	return r.saved().SaveFile(path)
}

// WriteJSON serializes the result as JSON to w.
func (r *Result) WriteJSON(w io.Writer) error {
	return r.saved().Write(w)
}

// saved converts the outcome for archiving, attaching the warm-start
// provenance so a stored result says where its priors came from, and the
// per-epoch breakdown so a drift session's archive carries its drift
// history. Cold, stationary sessions archive byte-identically to builds
// without either field.
func (r *Result) saved() *persist.SavedOutcome {
	s := persist.FromOutcome(r.outcome)
	if r.Transfer != nil {
		if b, err := json.Marshal(r.Transfer); err == nil {
			s.Transfer = b
		}
	}
	if len(r.Epochs) > 0 {
		if b, err := json.Marshal(r.Epochs); err == nil {
			s.Epochs = b
		}
	}
	return s
}

// LoadResult reads a previously saved result; it returns the stored
// summary and the reconstructed winning configuration.
func LoadResult(path string) (*persist.SavedOutcome, *Config, error) {
	saved, err := persist.LoadFile(path)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := saved.Config(flags.NewRegistry())
	if err != nil {
		return nil, nil, err
	}
	return saved, cfg, nil
}

// durabilitySetup resolves the checkpoint options into a snapshot keeper
// and (under Resume) the loaded snapshot to continue from. A missing
// checkpoint file is a fresh start, not an error; anything unreadable or
// corrupt fails closed.
func durabilitySetup(opts Options) (*checkpoint.Keeper, *checkpoint.Snapshot, error) {
	var resume *checkpoint.Snapshot
	if opts.Resume {
		snap, err := checkpoint.Load(opts.CheckpointPath)
		switch {
		case err == nil:
			resume = snap
		case errors.Is(err, os.ErrNotExist):
			// Nothing checkpointed yet — the fresh run is the correct (and,
			// by determinism, identical) continuation.
		default:
			return nil, nil, err
		}
	}
	var keeper *checkpoint.Keeper
	if opts.CheckpointPath != "" {
		keeper = checkpoint.NewKeeper(opts.CheckpointPath, opts.CheckpointEveryTrials, opts.Telemetry)
	}
	return keeper, resume, nil
}

// armCrashPoint chains the chaos plan's crash-at fault onto the session
// progress hook. The crash point rides the progress callback because it
// fires in the engine's deterministic delivery order; the plan's copy of
// the trigger is cleared so the measurement layer never sees it.
func armCrashPoint(plan *faultinject.Plan, onProgress func(core.TracePoint)) func(core.TracePoint) {
	at := plan.CrashAtTrial
	plan.CrashAtTrial = 0
	if at <= 0 {
		return onProgress
	}
	cp := &faultinject.CrashPoint{AtTrial: at}
	return func(tp core.TracePoint) {
		if onProgress != nil {
			onProgress(tp)
		}
		cp.OnTrial(tp.Trial)
	}
}

// MaxWorkers is the most evaluation slots a session accepts: a session
// keeps per-slot state, picks each round's slots in time quadratic in the
// slot count, and runs one measuring goroutine per slot.
const MaxWorkers = 64

// CheckOptions refuses the Options no session accepts: a Benchmark that
// names no built-in workload, Workers outside [0, MaxWorkers], Reps
// outside [0, dispatch.MaxReps] (the most the fleet wire carries), a
// BudgetMinutes that is negative or whose seconds are not finite (a
// session that never ends), a RealBudgetSeconds that is negative or not
// finite, a negative RetryAttempts, MaxTrials, CheckpointEveryTrials,
// TransferK or DispatchBatch, an Objective other than "", "throughput"
// and "pause", a DriftSensitivity without Drift or not
// positive and finite, Resume without CheckpointPath, both a fleet and
// JVMSimPath, a Chaos plan that does not parse, and node-down faults
// without a fleet. Zero means the default of each number. Tune and
// TuneCommon run it before they open, build or measure anything, and the
// CLI and the HTTP API run it on the options they build, so a refused
// option leaves nothing behind and reads the same everywhere.
func CheckOptions(opts Options) error {
	_, _, err := checkOptions(opts)
	return err
}

// checkOptions is CheckOptions, returning what it resolved on the way:
// the workload profile (nil when opts names none, as suite-common options
// do) and the chaos plan.
func checkOptions(opts Options) (prof *Profile, plan faultinject.Plan, err error) {
	prof = opts.Workload
	if prof == nil && opts.Benchmark != "" {
		var ok bool
		if prof, ok = workload.ByName(opts.Benchmark); !ok {
			return nil, plan, fmt.Errorf("hotspot: unknown benchmark %q (see hotspot.Benchmarks)", opts.Benchmark)
		}
	}
	fleet := len(opts.Nodes) > 0 || opts.FleetListen != ""
	s := opts.DriftSensitivity
	budget, wall := opts.BudgetMinutes*60, opts.RealBudgetSeconds
	switch {
	case opts.Workers < 0 || opts.Workers > MaxWorkers:
		err = fmt.Errorf("hotspot: workers %d outside [0, %d]", opts.Workers, MaxWorkers)
	case opts.Reps < 0 || opts.Reps > dispatch.MaxReps:
		err = fmt.Errorf("hotspot: reps %d outside [0, %d]", opts.Reps, dispatch.MaxReps)
	case budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0):
		err = fmt.Errorf("hotspot: BudgetMinutes must be non-negative with finite seconds, got %v", opts.BudgetMinutes)
	case wall < 0 || math.IsNaN(wall) || math.IsInf(wall, 0):
		err = fmt.Errorf("hotspot: RealBudgetSeconds must be non-negative and finite, got %v", wall)
	case min(opts.RetryAttempts, opts.MaxTrials, opts.CheckpointEveryTrials, opts.TransferK, opts.DispatchBatch) < 0:
		err = fmt.Errorf("hotspot: a count is negative: RetryAttempts %d, MaxTrials %d, CheckpointEveryTrials %d, TransferK %d, DispatchBatch %d",
			opts.RetryAttempts, opts.MaxTrials, opts.CheckpointEveryTrials, opts.TransferK, opts.DispatchBatch)
	case opts.Objective != "" && opts.Objective != string(core.ObjectiveThroughput) &&
		opts.Objective != string(core.ObjectivePause):
		err = fmt.Errorf("hotspot: unknown objective %q (want %q or %q)",
			opts.Objective, core.ObjectiveThroughput, core.ObjectivePause)
	case s != 0 && !opts.Drift:
		err = fmt.Errorf("hotspot: drift sensitivity %v requires Drift", s)
	case s < 0 || math.IsNaN(s) || math.IsInf(s, 0):
		err = fmt.Errorf("hotspot: DriftSensitivity must be positive and finite, got %v", s)
	case opts.Resume && opts.CheckpointPath == "":
		err = fmt.Errorf("hotspot: Resume requires CheckpointPath")
	case fleet && opts.JVMSimPath != "":
		err = fmt.Errorf("hotspot: Nodes and JVMSimPath are mutually exclusive")
	}
	if err != nil {
		return nil, plan, err
	}
	if plan, err = faultinject.ParsePlan(opts.Chaos); err != nil {
		return nil, plan, err
	}
	if plan.NodeDown > 0 && !fleet {
		return nil, plan, fmt.Errorf("hotspot: chaos node-down faults need a distributed session (set Nodes)")
	}
	return prof, plan, nil
}

// Tune runs one budgeted tuning session.
func Tune(opts Options) (*Result, error) {
	return TuneContext(context.Background(), opts)
}

// TuneContext is Tune with cancellation: the session stops between
// evaluation rounds once ctx is done and returns the context's error.
func TuneContext(ctx context.Context, opts Options) (*Result, error) {
	prof, plan, err := checkOptions(opts)
	if err != nil {
		return nil, err
	}
	if prof == nil {
		return nil, errors.New("hotspot: no benchmark to tune (set Benchmark or Workload)")
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	phases := driftSchedule(&plan)
	session, keeper, err := newSession(ctx, opts, &plan, core.DefaultBudgetSeconds)
	if err != nil {
		return nil, err
	}
	// Close waits out any in-flight snapshot write — including during the
	// panic unwind of a crash-point kill, which is what guarantees the
	// checkpoint on disk is complete when the "process" dies.
	defer keeper.Close()

	var xfer *transferSession
	if opts.TransferDir != "" {
		xfer = transferSetup(opts, prof)
		// Every return and a crash-point panic release the store handle;
		// a leaked handle would keep the store's stale state open for the
		// next session on the directory.
		defer xfer.store.Close()
		session.Searcher = core.NewWarmStart(session.Searcher, xfer.samples())
		session.Transfer = xfer.metaFingerprint()
	}

	var pool *dispatch.Pool
	if len(opts.Nodes) > 0 || opts.FleetListen != "" {
		pool, err = buildPool(opts, prof)
		if err != nil {
			return nil, err
		}
		pool.FaultHook = plan.NodeDownHook(opts.Seed)
		// Wired before the fleet comes up: joins and heartbeats report to
		// the pool's telemetry.
		session.Runner = measurementStack(pool, &pool.Harness, plan, opts)
		sec := security(opts)
		if opts.FleetStatePath != "" {
			fleet, view, ferr := dispatch.OpenFleet(opts.FleetStatePath, opts.Telemetry)
			if ferr != nil {
				return nil, ferr
			}
			pool.AttachFleet(fleet, view)
			// Re-dial the dynamic members a killed controller last knew
			// (joined, never drained) so the resumed session starts with the
			// same fleet instead of waiting for every node to re-register.
			rejoinMembers(pool, view, sec)
		}
		if opts.FleetListen != "" {
			member := dispatch.NewMembership(pool, sec)
			member.Telemetry = opts.Telemetry
			_, closeMember, merr := member.Serve(opts.FleetListen)
			if merr != nil {
				pool.Close()
				return nil, merr
			}
			defer closeMember()
		}
		pool.StartHeartbeats(heartbeatInterval)
		defer pool.Close()
	} else if opts.JVMSimPath != "" {
		sub := runner.NewSubprocess(opts.JVMSimPath, prof)
		session.Runner = measurementStack(sub, &sub.Harness, plan, opts)
	} else {
		sim := jvmsim.New()
		if opts.Noise >= 0 {
			sim.NoiseRelStdDev = opts.Noise
		}
		ip := runner.NewInProcess(sim, prof)
		session.Runner = measurementStack(ip, &ip.Harness, plan, opts)
	}

	session.Objective = core.Objective(opts.Objective)
	session.Phases = phases
	if opts.Drift {
		session.Drift = &core.DriftPolicy{Detector: driftConfig(opts)}
		// A drift transition rebuilds the searcher from scratch for the new
		// regime; the name was validated above, so the factory cannot fail.
		session.NewSearcher = func() core.Searcher {
			ns, _ := core.NewSearcher(searcherName(opts))
			return ns
		}
		session.EpochPriors = xfer.epochPriors(prof, phases, opts.TransferK)
	}
	out, err := session.Run()
	if err != nil {
		return nil, err
	}
	res := resultFromOutcome(out, plan.Name)
	// The store is written only here on the controller, and only after a
	// completed session: a killed run leaves the store unchanged, so a
	// checkpoint resume sees the same neighbours it checkpointed under.
	xfer.finish(res, opts, prof, phases, session.BudgetSeconds)
	return res, nil
}

// searcherName is the strategy opts selects, the paper's tuner by default.
func searcherName(opts Options) string {
	if opts.Searcher == "" {
		return "hierarchical"
	}
	return opts.Searcher
}

// newSession builds what TuneContext and TuneCommonContext share: the
// searcher, the budget (defaultBudget when opts sets none), the crash
// point, the checkpoint keeper and resume snapshot, and the overload and
// degradation options. The caller sets the Runner and closes the keeper.
func newSession(ctx context.Context, opts Options, plan *faultinject.Plan, defaultBudget float64) (*core.Session, *checkpoint.Keeper, error) {
	searcher, err := core.NewSearcher(searcherName(opts))
	if err != nil {
		return nil, nil, err
	}
	onProgress := armCrashPoint(plan, progressAdapter(opts.OnProgress))
	keeper, resume, err := durabilitySetup(opts)
	if err != nil {
		return nil, nil, err
	}
	budget := opts.BudgetMinutes * 60
	if budget <= 0 {
		budget = defaultBudget
	}
	s := &core.Session{
		Searcher:      searcher,
		BudgetSeconds: budget,
		Reps:          opts.Reps,
		Seed:          opts.Seed,
		Workers:       opts.Workers,
		Ctx:           ctx,
		OnProgress:    onProgress,
		Telemetry:     opts.Telemetry,
		Trace:         opts.Trace,
		Checkpoint:    keeper,
		Resume:        resume,
		MaxTrials:     opts.MaxTrials,
		BestEffort:    opts.BestEffort,
	}
	if opts.RealBudgetSeconds > 0 {
		s.RealBudget = time.Duration(opts.RealBudgetSeconds * float64(time.Second))
	}
	if opts.Hedge {
		s.Hedge = &core.HedgePolicy{}
	}
	if opts.Quarantine {
		s.Quarantine = &core.QuarantinePolicy{}
	}
	return s, keeper, nil
}

// measurementStack finishes the measurement layers of a session: run,
// whose harness h retries under the session's policy and reports its
// telemetry and trace, with the chaos plan's fault source installed on h
// when the plan injects faults.
func measurementStack(run runner.Runner, h *runner.Harness, plan faultinject.Plan, opts Options) runner.Runner {
	h.Retry = runner.RetryPolicy{MaxAttempts: opts.RetryAttempts}
	h.Telemetry, h.Trace = opts.Telemetry, opts.Trace
	if !plan.Active() {
		return run
	}
	return faultinject.New(run, plan, opts.Seed).Runner()
}

// heartbeatInterval is how often a distributed session probes its nodes'
// liveness endpoints, reviving quarantined nodes that answer again.
const heartbeatInterval = time.Second

// security collects the wire credential options.
func security(opts Options) *dispatch.Security {
	return &dispatch.Security{
		CertFile: opts.TLSCert, KeyFile: opts.TLSKey, CAFile: opts.TLSCA,
		Token: opts.AuthToken,
	}
}

// rejoinMembers re-dials the dynamic members recovered from the fleet
// journal. Dial errors are non-fatal: a member that moved or died since
// the journal was written simply re-registers (or never does, and its
// trials go elsewhere).
func rejoinMembers(pool *dispatch.Pool, view *dispatch.FleetView, sec *dispatch.Security) {
	if view == nil {
		return
	}
	known := make(map[string]bool)
	for _, name := range pool.Nodes() {
		known[name] = true
	}
	for name, addr := range view.Members {
		if known[name] {
			continue
		}
		if ev, err := dispatch.NewSecureRemote(addr, sec); err == nil {
			ev.NodeName = name
			pool.Join(ev, addr)
		}
	}
}

// buildPool assembles the distributed evaluation pool: one remote
// evaluator per node (dynamic when FleetListen accepts joins at runtime),
// timeout and noise mirroring the in-process runner's defaults, and —
// with FleetStatePath — the durable fleet journal.
func buildPool(opts Options, prof *workload.Profile) (*dispatch.Pool, error) {
	sec := security(opts)
	evs := make([]dispatch.Evaluator, 0, len(opts.Nodes))
	for _, addr := range opts.Nodes {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		ev, err := dispatch.NewSecureRemote(addr, sec)
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	var pool *dispatch.Pool
	var err error
	if opts.FleetListen != "" {
		pool, err = dispatch.NewDynamicPool(prof, evs...)
	} else {
		pool, err = dispatch.NewPool(prof, evs...)
	}
	if err != nil {
		return nil, err
	}
	pool.Batch = opts.DispatchBatch
	// Mirror runner.NewInProcess: the same noise model and the same 6×
	// default-wall timeout, so the fleet measures under identical harness
	// semantics and the bytes cannot tell the transport apart.
	sim := jvmsim.New()
	if opts.Noise >= 0 {
		sim.NoiseRelStdDev = opts.Noise
		pool.Noise = opts.Noise
	}
	pool.TimeoutSeconds = 6 * sim.DefaultWall(flags.NewRegistry(), prof, 1)
	return pool, nil
}

// resultFromOutcome maps the engine's outcome to the public Result.
func resultFromOutcome(out *core.Outcome, chaosName string) *Result {
	col, _ := hierarchy.SelectedCollector(out.Best)
	return &Result{
		outcome:           out,
		Benchmark:         out.Workload,
		Searcher:          out.Searcher,
		DefaultWall:       out.DefaultWall,
		BestWall:          out.BestWall,
		ImprovementPct:    out.ImprovementPct,
		Speedup:           out.Speedup,
		Best:              out.Best,
		CommandLine:       out.Best.ExplicitArgs(),
		Collector:         string(col),
		Trials:            out.Trials,
		Failures:          out.Failures,
		CacheHits:         out.CacheHits,
		Flakes:            out.Flakes,
		Attempts:          out.Attempts,
		TransientFailures: out.TransientFailures,
		Chaos:             chaosName,
		Degraded:          out.Degraded,
		DegradedReason:    out.DegradedReason,
		Quarantined:       out.Quarantined,
		Hedges:            out.Hedges,
		HedgeWins:         out.HedgeWins,
		ElapsedMinutes:    out.Elapsed / 60,
		Trace:             out.Trace,
		Epochs:            epochsFromOutcome(out),
	}
}

// FlagContribution is one flag's measured contribution to a winning
// configuration; see Explain.
type FlagContribution = core.FlagAttribution

// Explain performs revert-one-flag analysis of a tuning result: each flag
// the winner changed is individually restored to its default and the
// configuration re-measured, quantifying what that flag was worth. Pass the
// profile for custom workloads; nil looks the benchmark up by name.
// Contributions are sorted most-important first.
func Explain(res *Result, w *Profile) ([]FlagContribution, error) {
	prof := w
	if prof == nil {
		p, ok := workload.ByName(res.Benchmark)
		if !ok {
			return nil, fmt.Errorf("hotspot: unknown benchmark %q; pass the Profile for custom workloads", res.Benchmark)
		}
		prof = p
	}
	r := runner.NewInProcess(jvmsim.New(), prof)
	return core.Attribute(r, res.Best, 3), nil
}

// Minimize prunes a tuning result's winning configuration down to the
// flags that matter: passengers whose removal costs less than tolerancePct
// (default 1%) are reverted. It returns the minimal configuration and its
// command line. Pass the profile for custom workloads; nil looks the
// benchmark up by name.
func Minimize(res *Result, w *Profile, tolerancePct float64) (*Config, []string, error) {
	prof := w
	if prof == nil {
		p, ok := workload.ByName(res.Benchmark)
		if !ok {
			return nil, nil, fmt.Errorf("hotspot: unknown benchmark %q; pass the Profile for custom workloads", res.Benchmark)
		}
		prof = p
	}
	r := runner.NewInProcess(jvmsim.New(), prof)
	min := core.Minimize(r, res.Best, 3, tolerancePct)
	return min, min.ExplicitArgs(), nil
}

// progressAdapter bridges the session's trace-point callback to the public
// Progress snapshot. The first trace point is the baseline, which fixes the
// denominator for the improvement percentage.
func progressAdapter(f func(Progress)) func(core.TracePoint) {
	if f == nil {
		return nil
	}
	defaultWall := 0.0
	return func(tp core.TracePoint) {
		if defaultWall == 0 {
			defaultWall = tp.BestWall
		}
		f(Progress{
			Trials:         tp.Trial,
			ElapsedMinutes: tp.Elapsed / 60,
			BestWall:       tp.BestWall,
			ImprovementPct: stats.ImprovementPct(defaultWall, tp.BestWall),
			Flakes:         tp.Flakes,
		})
	}
}

// TuneCommon searches for a single configuration that serves every given
// workload, scored by mean normalized wall time across them. The returned
// Result's walls are normalized (DefaultWall is 1.0), so ImprovementPct
// reads as the suite-average improvement. Budget applies to the aggregate:
// each trial measures every member.
func TuneCommon(profiles []*Profile, opts Options) (*Result, error) {
	return TuneCommonContext(context.Background(), profiles, opts)
}

// TuneCommonContext is TuneCommon with cancellation, like TuneContext.
// Suite-common tuning measures in-process and scores throughput, so it
// refuses the options that would change either rather than ignore them.
func TuneCommonContext(ctx context.Context, profiles []*Profile, opts Options) (*Result, error) {
	_, plan, err := checkOptions(opts)
	if err != nil {
		return nil, err
	}
	if opts.Drift {
		// Suite-common tuning scores one configuration across the whole
		// suite; there is no single workload to drift or re-fingerprint.
		return nil, fmt.Errorf("hotspot: drift re-tuning needs a single-workload session")
	}
	for _, o := range []struct {
		set  bool
		name string
	}{
		{len(opts.Nodes) > 0, "Nodes"},
		{opts.FleetListen != "", "FleetListen"},
		{opts.JVMSimPath != "", "JVMSimPath"},
		{opts.TransferDir != "", "TransferDir"},
		// The suite runner records no pauses, so there is nothing to score.
		{opts.Objective == "pause", `Objective "pause"`},
	} {
		if o.set {
			return nil, fmt.Errorf("hotspot: suite-common tuning does not support %s", o.name)
		}
	}
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	sim := jvmsim.New()
	if opts.Noise >= 0 {
		sim.NoiseRelStdDev = opts.Noise
	}
	multi, err := runner.NewMulti(sim, profiles)
	if err != nil {
		return nil, err
	}
	if driftSchedule(&plan) != nil {
		return nil, fmt.Errorf("hotspot: chaos drift-at needs a single-workload session")
	}
	session, keeper, err := newSession(ctx, opts, &plan, core.DefaultBudgetSeconds*float64(len(profiles)))
	if err != nil {
		return nil, err
	}
	defer keeper.Close()
	session.Runner = measurementStack(multi, &multi.Harness, plan, opts)
	out, err := session.Run()
	if err != nil {
		return nil, err
	}
	return resultFromOutcome(out, plan.Name), nil
}

// Benchmarks lists the built-in workloads: the 16 SPECjvm2008 startup
// programs and the 13 DaCapo programs the paper evaluated.
func Benchmarks() []string { return workload.Names() }

// Suite returns the profiles of one built-in suite: "specjvm2008" or
// "dacapo".
func Suite(name string) ([]*Profile, error) {
	switch name {
	case "specjvm2008":
		return workload.SPECjvm2008(), nil
	case "dacapo":
		return workload.DaCapo(), nil
	default:
		return nil, fmt.Errorf("hotspot: unknown suite %q", name)
	}
}

// Searchers lists the available strategies, the paper's tuner first.
func Searchers() []string { return core.SearcherNames() }

// ChaosScenarios lists the named fault plans Options.Chaos accepts (it also
// accepts the fault-plan DSL; see internal/faultinject.ParsePlan).
func ChaosScenarios() []string { return faultinject.Scenarios() }

// Measure runs the given java-style arguments against a built-in benchmark
// once on the simulated VM, without any tuning — useful to check what a
// specific flag combination does.
func Measure(args []string, benchmark string, rep int) (wallSeconds float64, err error) {
	prof, ok := workload.ByName(benchmark)
	if !ok {
		return 0, fmt.Errorf("hotspot: unknown benchmark %q", benchmark)
	}
	reg := flags.NewRegistry()
	cfg, err := flags.ParseArgs(reg, args)
	if err != nil {
		return 0, err
	}
	res := jvmsim.New().Run(cfg, prof, rep)
	if res.Failed {
		return 0, fmt.Errorf("hotspot: run failed (%s): %s", res.Failure, res.FailureMessage)
	}
	return res.WallSeconds, nil
}
