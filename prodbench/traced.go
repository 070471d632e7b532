package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/hotspot"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/faultinject"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/persist"
	"repro/internal/runner"
	"repro/internal/transfer"
	"repro/internal/workload"
)

// layers accumulates the traced run's per-layer measurements across all of
// its sessions.
type layers struct {
	propose, observe  seam // session → searcher
	measure, snapshot seam // session → runner
	rtt               seam // controller → evald, per round trip
	handle            seam // evald evaluate handlers

	mu        sync.Mutex
	sessions  int
	trials    int
	wall      time.Duration // whole traced sessions
	runWall   time.Duration // core.Session.Run
	setup     time.Duration // session start → first proposal
	teardown  time.Duration // last observation → return
	measured  int           // configurations through the runner seam
	cacheHits int
	fresh     int // measured, not from cache
	attempts  int
	rounds    float64
	rtts      []float64 // µs per round trip
	rttTrials int
	reqBytes  atomic.Int64
	respBytes atomic.Int64
	redisp    float64
	shed      float64
	ckWrites  float64
	ckSkipped float64
	ckBytes   float64
	ckLoad    time.Duration
	keeperEnd time.Duration // waiting out the last checkpoint write
	replayed  int
	xOpen     time.Duration
	xPriors   time.Duration
	xAppend   time.Duration
	xEntries  int
	faults    float64
	events    int
	writeOut  time.Duration
	simRuns   int
	simTime   time.Duration

	// Per-session state.
	start, firstProposal, lastObservation time.Time
	cfgs                                  []measuredConfig
}

// measuredConfig is a configuration the runner measured fresh in the
// current session; the simulator is timed over them afterwards.
type measuredConfig struct {
	cfg  *flags.Config
	reps int
}

func (l *layers) noteMeasured(cfg *flags.Config, reps int, m runner.Measurement) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.measured++
	if m.FromCache {
		l.cacheHits++
		return
	}
	l.fresh++
	l.attempts += m.Attempts
	l.cfgs = append(l.cfgs, measuredConfig{cfg, reps})
}

func (l *layers) noteProposal(t time.Time) {
	l.mu.Lock()
	if l.firstProposal.IsZero() {
		l.firstProposal = t
	}
	l.mu.Unlock()
}

func (l *layers) noteObservation(t time.Time) {
	l.mu.Lock()
	l.lastObservation = t
	l.mu.Unlock()
}

func (l *layers) noteRoundTrip(d time.Duration, trials int) {
	l.mu.Lock()
	l.rtts = append(l.rtts, float64(d)/float64(time.Microsecond))
	l.rttTrials += trials
	l.mu.Unlock()
}

// tracedTune runs one session exactly as hotspot.TuneContext would for the
// options this benchmark uses, but assembled here from the layers' public
// constructors so that every seam can be timed. Its outcome — result bytes,
// trace bytes, store bytes — must equal TuneContext's; the package test
// holds it to that. It returns the serialized result.
func tracedTune(opts hotspot.Options, l *layers) (*persist.SavedOutcome, error) {
	l.start, l.firstProposal, l.lastObservation, l.cfgs = time.Now(), time.Time{}, time.Time{}, nil
	if (opts.Searcher != "" && opts.Searcher != "hierarchical") || opts.Drift || opts.JVMSimPath != "" ||
		opts.FleetListen != "" || opts.FleetStatePath != "" || opts.OnProgress != nil || opts.MaxTrials > 0 ||
		opts.RealBudgetSeconds > 0 || opts.BestEffort {
		return nil, errors.New("traced run: option outside the benchmark's production shape")
	}
	prof := opts.Workload
	if prof == nil {
		p, ok := workload.ByName(opts.Benchmark)
		if !ok {
			return nil, fmt.Errorf("traced run: unknown benchmark %q", opts.Benchmark)
		}
		prof = p
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	searcher := wrapSearcher(core.NewHierarchical(), l)
	var reg *flags.Registry
	var xfer *tracedTransfer
	if opts.TransferDir != "" {
		reg = flags.NewRegistry()
		xfer = openTransfer(opts, prof, reg, l)
		searcher = core.NewWarmStart(searcher, xfer.samples())
	}
	defer xfer.close()
	plan, err := faultinject.ParsePlan(opts.Chaos)
	if err != nil {
		return nil, err
	}
	if plan.CrashAtTrial > 0 || len(plan.DriftAtTrials) > 0 {
		return nil, errors.New("traced run: crash-at and drift-at are outside the production shape")
	}
	var resume *checkpoint.Snapshot
	if opts.Resume {
		t0 := time.Now()
		snap, err := checkpoint.Load(opts.CheckpointPath)
		l.ckLoad += time.Since(t0)
		switch {
		case err == nil:
			resume = snap
			l.replayed += len(snap.Trials)
		case !errors.Is(err, os.ErrNotExist):
			return nil, err
		}
	}
	var keeper *checkpoint.Keeper
	if opts.CheckpointPath != "" {
		keeper = checkpoint.NewKeeper(opts.CheckpointPath, opts.CheckpointEveryTrials, opts.Telemetry)
	}
	defer keeper.Close()

	retry := runner.RetryPolicy{MaxAttempts: opts.RetryAttempts}
	sim := jvmsim.New()
	if opts.Noise >= 0 {
		sim.NoiseRelStdDev = opts.Noise
	}
	var run runner.Runner
	var pool *dispatch.Pool
	if len(opts.Nodes) > 0 {
		var evs []dispatch.Evaluator
		for _, addr := range opts.Nodes {
			ev, err := dispatch.NewSecureRemote(strings.TrimSpace(addr), &dispatch.Security{})
			if err != nil {
				return nil, err
			}
			evs = append(evs, wrapEvaluator(ev, l))
		}
		if pool, err = dispatch.NewPool(prof, evs...); err != nil {
			return nil, err
		}
		pool.Batch = opts.DispatchBatch
		if opts.Noise >= 0 {
			pool.Noise = opts.Noise
		}
		pool.TimeoutSeconds = 6 * sim.DefaultWall(flags.NewRegistry(), prof, 1)
		pool.Retry = retry
		if !plan.Active() {
			pool.Telemetry, pool.Trace = opts.Telemetry, opts.Trace
		}
		pool.FaultHook = plan.NodeDownHook(opts.Seed)
		pool.StartHeartbeats(time.Second)
		defer pool.Close()
		run = pool
	} else {
		ip := runner.NewInProcess(sim, prof)
		ip.Retry = retry
		if !plan.Active() {
			ip.Telemetry, ip.Trace = opts.Telemetry, opts.Trace
		}
		run = ip
	}
	if plan.Active() {
		chaos := faultinject.New(run, plan, opts.Seed)
		chaos.Retry = retry
		chaos.Telemetry, chaos.Trace = opts.Telemetry, opts.Trace
		run = chaos
	}

	budget := opts.BudgetMinutes * 60
	if budget <= 0 {
		budget = core.DefaultBudgetSeconds
	}
	session := &core.Session{
		Runner:        wrapRunner(run, l),
		Searcher:      searcher,
		Reg:           reg,
		BudgetSeconds: budget,
		Reps:          opts.Reps,
		Seed:          opts.Seed,
		Workers:       opts.Workers,
		Objective:     core.Objective(opts.Objective),
		Ctx:           context.Background(),
		Telemetry:     opts.Telemetry,
		Trace:         opts.Trace,
		Checkpoint:    keeper,
		Resume:        resume,
		Transfer:      xfer.metaFingerprint(),
	}
	if opts.Hedge {
		session.Hedge = &core.HedgePolicy{}
	}
	if opts.Quarantine {
		session.Quarantine = &core.QuarantinePolicy{}
	}
	t0 := time.Now()
	out, err := session.Run()
	l.runWall += time.Since(t0)
	if err != nil {
		return nil, err
	}
	saved := persist.FromOutcome(out)
	if err := xfer.finish(saved, out, opts, prof, budget, l); err != nil {
		return nil, err
	}
	if pool != nil {
		pool.Close()
	}
	t1 := time.Now()
	if err := keeper.Close(); err != nil {
		return nil, err
	}
	l.keeperEnd += time.Since(t1)
	end := time.Now()
	l.sessions++
	l.trials += out.Trials
	l.wall += end.Sub(l.start)
	if !l.firstProposal.IsZero() {
		l.setup += l.firstProposal.Sub(l.start)
		l.teardown += end.Sub(l.lastObservation)
	}
	return saved, nil
}

// tracedTransfer mirrors the warm-start plumbing of hotspot.TuneContext
// (hotspot/transfer.go) with the store calls timed.
type tracedTransfer struct {
	store  *transfer.Store
	fp     transfer.Fingerprint
	priors []transfer.Prior
	info   hotspot.TransferInfo
}

func openTransfer(opts hotspot.Options, prof *workload.Profile, reg *flags.Registry, l *layers) *tracedTransfer {
	ts := &tracedTransfer{fp: transfer.FingerprintOf(prof)}
	t0 := time.Now()
	st, err := transfer.Open(opts.TransferDir, opts.Telemetry)
	l.xOpen += time.Since(t0)
	if err != nil {
		return ts
	}
	ts.store = st
	ts.info.StoreEntries = st.Len()
	l.xEntries += st.Len()
	opts.Telemetry.Gauge("transfer_store_entries").Set(float64(st.Len()))
	k := opts.TransferK
	if k <= 0 {
		k = 3
	}
	t1 := time.Now()
	neighbors := st.Nearest(ts.fp, k)
	ts.priors = transfer.Priors(st, reg, ts.fp, k)
	l.xPriors += time.Since(t1)
	ts.info.Hits = len(neighbors)
	if len(neighbors) > 0 {
		ts.info.NearestWorkload = neighbors[0].Entry.Workload
		ts.info.NearestDistance = neighbors[0].Distance
		opts.Telemetry.Gauge("transfer_nearest_distance").Set(neighbors[0].Distance)
	}
	ts.info.Priors = len(ts.priors)
	for _, p := range ts.priors {
		ts.info.RepairedFlags += p.Dropped
	}
	opts.Telemetry.Counter("transfer_priors_injected_total").Add(uint64(len(ts.priors)))
	if ts.info.RepairedFlags > 0 {
		opts.Telemetry.Counter("transfer_repaired_flags_total").Add(uint64(ts.info.RepairedFlags))
	}
	return ts
}

func (ts *tracedTransfer) samples() []core.PriorSample {
	out := make([]core.PriorSample, len(ts.priors))
	for i, p := range ts.priors {
		out[i] = core.PriorSample{Cfg: p.Config, Norm: p.Norm}
	}
	return out
}

func (ts *tracedTransfer) metaFingerprint() string {
	if ts == nil || len(ts.priors) == 0 {
		return ""
	}
	keys := make([]string, len(ts.priors))
	for i, p := range ts.priors {
		keys[i] = p.Config.Key()
	}
	return fmt.Sprintf("fp=%s priors=%s", ts.fp.Key(), strings.Join(keys, "|"))
}

// finish records the winner, timed, and attaches the provenance.
func (ts *tracedTransfer) finish(saved *persist.SavedOutcome, out *core.Outcome, opts hotspot.Options,
	prof *workload.Profile, budget float64, l *layers) error {
	if ts == nil {
		return nil
	}
	if ts.store != nil && out.Best != nil && out.Best.Key() != "" {
		reps := opts.Reps
		if reps <= 0 {
			reps = 3
		}
		objective := opts.Objective
		if objective == "" {
			objective = string(core.ObjectiveThroughput)
		}
		t0 := time.Now()
		err := ts.store.Append(&transfer.Entry{
			FP: ts.fp, Workload: prof.Name, Suite: prof.Suite, Searcher: out.Searcher,
			Objective: objective, Seed: opts.Seed, Reps: reps, Trials: out.Trials,
			BudgetSeconds: budget, Args: out.Best.ExplicitArgs(),
			Score: out.BestWall, BaselineScore: out.DefaultWall,
		})
		l.xAppend += time.Since(t0)
		ts.info.Recorded = err == nil
	}
	b, err := json.Marshal(&ts.info)
	saved.Transfer = b
	return err
}

func (ts *tracedTransfer) close() {
	if ts != nil {
		ts.store.Close()
	}
}

// runTraced is the per-layer run. It first runs every spec once untraced
// (the reference its traced sessions must reproduce byte for byte), then
// loops traced sessions for the measuring time.
func runTraced(f *fixture, d time.Duration) (*result, error) {
	res := newResult()
	refs := make([]*digest, len(f.specs))
	for i := range f.specs {
		if err := f.prepare(i); err != nil {
			return nil, err
		}
		_, ref, err := tuneDigest(f.options(f.specs[i]))
		if err != nil {
			return nil, fmt.Errorf("untraced reference %v: %w", f.specs[i], err)
		}
		refs[i] = ref
	}
	l := &layers{}
	if f.node != nil {
		f.node.seams.rec.Store(l)
		defer f.node.seams.rec.Store(nil)
	}
	start := time.Now()
	for n := 0; time.Since(start) < d || n < minSessions || n%len(f.specs) != 0; n++ {
		i := n % len(f.specs)
		if err := f.prepare(i); err != nil {
			return nil, err
		}
		opts := f.options(f.specs[i])
		shed0 := 0.0
		if f.node != nil {
			shed0 = counter(f.node.tel, "evald_shed_total")
		}
		res.attempted++
		saved, err := tracedTune(opts, l)
		if err != nil {
			res.miss("%v: %v", f.specs[i], err)
			continue
		}
		l.afterSession(f, opts, shed0)
		dg, err := digestOf(saved.Write, opts.Trace)
		if err != nil {
			return nil, err
		}
		if *dg != *refs[i] {
			res.miss("%v: traced outcome differs from the untraced session", f.specs[i])
		}
	}
	if l.trials == 0 {
		return nil, errors.New("no traced session completed")
	}
	l.report(res)
	return res, nil
}

// afterSession folds one session's program-side series into the totals
// and times the simulator over the configurations it measured. It runs
// outside the session.
func (l *layers) afterSession(f *fixture, opts hotspot.Options, shed0 float64) {
	tel := opts.Telemetry
	l.rounds += counter(tel, "session_rounds_total")
	l.redisp += counter(tel, "dispatch_redispatch_total")
	l.ckWrites += counter(tel, "checkpoint_writes_total")
	l.ckSkipped += counter(tel, "checkpoint_write_skipped_total")
	l.faults += prefixSum(tel, "chaos_faults_total")
	if f.node != nil {
		l.shed += counter(f.node.tel, "evald_shed_total") - shed0
	}
	if opts.CheckpointPath != "" {
		if fi, err := os.Stat(opts.CheckpointPath); err == nil {
			l.ckBytes += float64(fi.Size())
		}
	}
	l.events += opts.Trace.Len() + opts.Trace.Dropped()
	t0 := time.Now()
	opts.Trace.WriteJSONL(io.Discard)
	tel.WritePrometheus(io.Discard)
	l.writeOut += time.Since(t0)

	prof := opts.Workload
	if prof == nil {
		prof, _ = workload.ByName(opts.Benchmark)
	}
	sim := jvmsim.New()
	var buf [16]jvmsim.Result
	t1 := time.Now()
	for _, mc := range l.cfgs {
		sim.RunReps(mc.cfg, prof, 0, mc.reps, buf[:0])
	}
	l.simTime += time.Since(t1)
	l.simRuns += len(l.cfgs)
}

// report renders the per-layer metrics and, as run information, each
// module group's share of session wall time.
func (l *layers) report(res *result) {
	us := func(d time.Duration, n int) float64 { return ratio(float64(d)/float64(time.Microsecond), float64(n)) }
	ms := func(d time.Duration, n int) float64 { return ratio(float64(d)/float64(time.Millisecond), float64(n)) }
	trials, sessions := l.trials, l.sessions
	seamBusy := l.propose.busy + l.observe.busy + l.measure.busy + l.snapshot.busy
	executor := l.runWall - seamBusy

	res.metric("core.propose_us", us(l.propose.total, trials), "us")
	res.metric("core.observe_us", us(l.observe.total, trials), "us")
	res.metric("core.trials_per_round", ratio(float64(trials), l.rounds), "count")
	res.metric("core.executor_us", us(executor, trials), "us")
	res.metric("runner.measure_us", us(l.measure.total, l.measured), "us")
	res.metric("runner.cache_hit_ratio", ratio(float64(l.cacheHits), float64(l.measured)), "ratio")
	res.metric("jvmsim.run_us", us(l.simTime, l.simRuns), "us")
	res.metric("telemetry.events_per_trial", ratio(float64(l.events), float64(trials)), "count")
	res.metric("telemetry.write_ms", ms(l.writeOut, sessions), "ms")

	res.metric("dispatch.rtt_us_p50", quantile(l.rtts, 0.5), "us")
	res.metric("dispatch.rtt_us_p99", quantile(l.rtts, 0.99), "us")
	res.metric("dispatch.trials_per_batch", ratio(float64(l.rttTrials), float64(len(l.rtts))), "count")
	res.metric("dispatch.client_us", us(l.rtt.total-l.handle.total, l.rttTrials), "us")
	res.metric("dispatch.req_bytes_per_trial", ratio(float64(l.reqBytes.Load()), float64(l.rttTrials)), "B")
	res.metric("dispatch.resp_bytes_per_trial", ratio(float64(l.respBytes.Load()), float64(l.rttTrials)), "B")
	res.metric("dispatch.redispatches", l.redisp, "count")
	res.metric("evald.handle_us", us(l.handle.total, l.rttTrials), "us")
	res.metric("evald.shed", l.shed, "count")

	res.metric("checkpoint.writes", ratio(l.ckWrites, float64(sessions)), "count")
	res.metric("checkpoint.skipped", ratio(l.ckSkipped, float64(sessions)), "count")
	res.metric("checkpoint.final_kb", ratio(l.ckBytes/1024, float64(sessions)), "KiB")
	res.metric("runner.snapshot_us", us(l.snapshot.total, l.snapshot.calls), "us")
	res.metric("checkpoint.load_ms", ms(l.ckLoad, sessions), "ms")
	res.metric("checkpoint.replayed_trials", ratio(float64(l.replayed), float64(sessions)), "count")

	res.metric("transfer.open_ms", ms(l.xOpen, sessions), "ms")
	res.metric("transfer.priors_ms", ms(l.xPriors, sessions), "ms")
	res.metric("transfer.append_ms", ms(l.xAppend, sessions), "ms")
	res.metric("transfer.entries", ratio(float64(l.xEntries), float64(sessions)), "count")
	res.metric("hotspot.setup_ms", ms(l.setup, sessions), "ms")
	res.metric("hotspot.teardown_ms", ms(l.teardown, sessions), "ms")
	res.metric("runner.attempts_per_trial", ratio(float64(l.attempts), float64(l.fresh)), "count")
	res.metric("faultinject.faults_per_trial", ratio(l.faults, float64(l.fresh)), "count")

	// Module-group shares of session wall time. The search path is the
	// engine's own work plus measurement that did not cross the wire;
	// durability is every checkpoint and transfer call the session waits on.
	wall := float64(l.wall)
	share := func(d time.Duration) float64 { return ratio(float64(d), wall) }
	res.info["share_search"] = share(l.propose.busy + l.observe.busy + executor + l.measure.busy - l.rtt.busy)
	res.info["share_dispatch_evald"] = share(l.rtt.busy)
	res.info["share_checkpoint_transfer"] = share(l.snapshot.busy + l.ckLoad + l.keeperEnd + l.xOpen + l.xPriors + l.xAppend)
	res.info["trials"] = trials
}
