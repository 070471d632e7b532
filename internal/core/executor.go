package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/flags"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// BatchSearcher is an optional Searcher extension for multi-worker
// sessions. A searcher that implements it is asked for up to n proposals at
// once, which the session evaluates concurrently on real goroutines; a
// searcher that does not is driven through repeated Propose calls instead.
//
// Returning fewer than n configurations leaves the remaining slots idle for
// one round (useful at phase boundaries — the hierarchical searcher stops a
// batch at the end of its branch survey so refinement only starts once every
// survey measurement has been observed). Returning an empty batch means the
// searcher is exhausted and ends the session.
type BatchSearcher interface {
	Searcher
	// ProposeBatch returns up to n configurations to evaluate concurrently.
	ProposeBatch(ctx *Context, n int) []*flags.Config
}

// trial is one dispatched measurement occupying a virtual evaluation slot.
type trial struct {
	seq   int     // dispatch order, the deterministic tie-break
	slot  int     // virtual slot charged for the measurement
	start float64 // virtual time the slot became free
	cfg   *flags.Config
	key   string // cfg.Key(), computed once at dispatch
	m     runner.Measurement
	// eff is the virtual cost actually charged to the slot — m.CostSeconds
	// unless the straggler watchdog resolved a hedge; hedged names the
	// watchdog's verdict when it did.
	eff    float64
	hedged string
	// synthetic marks a quarantine rejection: m was synthesized at zero
	// cost and the runner never saw the configuration. qlabel is the
	// quarantined subtree.
	synthetic bool
	qlabel    string
}

// robState bundles the overload-robustness machinery threaded through the
// loop: the straggler watchdog, the failure quarantine, and the wall-clock
// safety net. Always non-nil; individual features are nil when disabled.
type robState struct {
	hg       *hedger
	quar     *quarantine
	now      func() time.Time
	deadline time.Time // zero when no RealBudget is set
}

// ckState is the session's durability bookkeeping, non-nil only when
// checkpointing or resuming. log accumulates every delivered measurement in
// delivery order; replay maps dispatch seq → recorded trial for the resume
// prefix, satisfied without touching the runner. epochs accumulates the
// re-tuning epochs opened so far (with the warm-start priors each used);
// epochReplay maps epoch index → recorded epoch so a resumed session
// rebuilds each epoch's searcher from the original priors verbatim.
type ckState struct {
	keeper      *checkpoint.Keeper
	meta        checkpoint.Meta
	base        runner.Measurement
	snap        runner.StateSnapshotter
	log         []checkpoint.TrialRecord
	replay      map[int]checkpoint.TrialRecord
	epochs      []checkpoint.EpochRecord
	epochReplay map[int]checkpoint.EpochRecord
}

// measurers is a session's own measuring fan-out: workers-1 goroutines
// that live as long as the session and measure a round's fresh trials past
// the first, which the session goroutine measures itself. Each trial's
// measurement lands in its own trial, so delivery order never depends on
// which goroutine measured what.
type measurers struct {
	run  runner.Runner
	reps int
	// work holds one round's trials past the first: at most workers-1, so
	// a send never blocks.
	work chan *trial
	busy sync.WaitGroup // the round's trials still being measured
	live sync.WaitGroup // the goroutines still running
}

// startMeasurers starts the fan-out for a session of the given width.
// With one worker it starts nothing.
func startMeasurers(run runner.Runner, reps, workers int) *measurers {
	ms := &measurers{run: run, reps: reps}
	if workers > 1 {
		ms.work = make(chan *trial, workers-1)
		ms.live.Add(workers - 1)
		for i := 1; i < workers; i++ {
			go ms.serve()
		}
	}
	return ms
}

func (ms *measurers) serve() {
	defer ms.live.Done()
	for tr := range ms.work {
		tr.m = ms.run.Measure(tr.cfg, ms.reps)
		ms.busy.Done()
	}
}

// measure measures one round's fresh trials, at most one per worker, and
// returns once every measurement is in.
func (ms *measurers) measure(fresh []*trial) {
	ms.busy.Add(len(fresh) - 1)
	for _, tr := range fresh[1:] {
		ms.work <- tr
	}
	fresh[0].m = ms.run.Measure(fresh[0].cfg, ms.reps)
	ms.busy.Wait()
}

// stop ends the fan-out and returns once its goroutines have exited. Only
// a panic on the session goroutine can leave a measurement in flight; it
// finishes first.
func (ms *measurers) stop() {
	if ms.work != nil {
		close(ms.work)
		ms.live.Wait()
	}
}

// writeCheckpoint snapshots the session at a round boundary and hands it
// to the keeper, which persists it off the session goroutine. Rounds are
// barriers, so no Measure call is in flight and the runner state is
// consistent. A snapshot failure is counted but never fails the session —
// durability is best-effort, the search itself must not be.
func (s *Session) writeCheckpoint(ck *ckState, ctx *Context) {
	state, err := ck.snap.SnapshotState()
	if err != nil {
		s.Telemetry.Counter("checkpoint_snapshot_errors_total").Inc()
		return
	}
	// The full slice expression freezes the log's current extent; delivered
	// records are never rewritten, so the background encode can read them
	// while the session keeps appending.
	snap := &checkpoint.Snapshot{
		Meta:        ck.meta,
		Trial:       ctx.Trial,
		Elapsed:     ctx.Elapsed,
		BestKey:     ctx.Best.Key(),
		BestScore:   ctx.BestWall,
		Baseline:    ck.base,
		Trials:      ck.log[:len(ck.log):len(ck.log)],
		Epochs:      ck.epochs[:len(ck.epochs):len(ck.epochs)],
		RunnerState: state,
	}
	ck.keeper.Write(snap)
}

// runLoop is the session's evaluation engine: a bulk-synchronous batched
// executor. Each round it fills every budget-eligible slot with a proposal
// (earliest-free slot first), measures the whole batch concurrently, then
// delivers the observations in virtual-completion order. Unless the runner
// batches, the session owns workers-1 measuring goroutines for its whole
// run and measures each round's first fresh trial itself; every return,
// and a panic unwinding the session goroutine, stops them.
//
// Determinism for a fixed seed holds because every source of randomness is
// serialized deterministically: proposals draw from the session RNG on the
// session goroutine in slot order, noise-rep indices are allocated per
// configuration key by the runner, and a key is measured at most once per
// round (duplicates are deferred), so concurrent Measure calls never race on
// a key's rep sequence. Real goroutine scheduling only changes when results
// arrive in wall-clock time, never what they are or the order the searcher
// sees them in.
func (s *Session) runLoop(runCtx context.Context, ctx *Context, out *Outcome,
	slotFree []float64, reps int, budget float64, ck *ckState, rob *robState, ds *driftState) error {
	workers := len(slotFree)

	// A batching runner fans a round out itself (the dispatch pool), so it
	// gets no measuring goroutines.
	bm, batched := s.Runner.(runner.BatchMeasurer)
	width := workers
	if batched {
		width = 1
	}
	fan := startMeasurers(s.Runner, reps, width)
	defer fan.stop()

	// searcher is the live proposal strategy. It starts as the session's
	// Searcher and is rebuilt (warm-started) at each re-tuning epoch.
	searcher := s.Searcher

	// Cache hits are free, so a searcher that re-proposes known
	// configurations forever would never consume budget; bound the
	// consecutive free trials to keep the loop total.
	freeTrials := 0
	const maxFreeTrials = 1000

	// degrade marks the outcome as stopped-early: the session still returns
	// its best-so-far answer, with the reason on the outcome and a labeled
	// counter in telemetry.
	degrade := func(tag, format string, args ...any) {
		out.Degraded = true
		out.DegradedReason = fmt.Sprintf(format, args...)
		s.Telemetry.Counter(`session_degraded_total{reason="` + tag + `"}`).Inc()
	}

	dispatched := 0
	seq := 0
	exhausted := false
	// carry holds proposals deferred from the previous round: duplicates of
	// a key already measuring in that round, or overflow past the round's
	// slot count. It is bounded by the slot count per round.
	var carry []*flags.Config

	for {
		if err := runCtx.Err(); err != nil {
			if s.BestEffort {
				degrade("canceled", "canceled after %d trials: %v", ctx.Trial, err)
				return nil
			}
			return fmt.Errorf("core: session canceled after %d trials: %w", ctx.Trial, err)
		}
		if !rob.deadline.IsZero() && !rob.now().Before(rob.deadline) {
			degrade("wall-clock", "wall-clock budget %s exhausted after %d trials", s.RealBudget, ctx.Trial)
			break
		}
		if freeTrials >= maxFreeTrials {
			degrade("stalled", "stalled after %d consecutive zero-cost trials", maxFreeTrials)
			break
		}
		// Apply the workload's phase schedule before dispatching: the round
		// is a barrier, so no measurement observes a half-applied shift.
		if err := s.advancePhase(ctx, ds, dispatched); err != nil {
			return err
		}

		// Pick the slots that can still start a trial inside the budget,
		// earliest-free first. Rounds are barriers, so each slot hosts at
		// most one trial per round.
		type pick struct {
			slot  int
			start float64
		}
		var picks []pick
		used := make([]bool, workers)
		for len(picks) < workers {
			sel := -1
			for i := 0; i < workers; i++ {
				if !used[i] && (sel < 0 || slotFree[i] < slotFree[sel]) {
					sel = i
				}
			}
			if sel < 0 || slotFree[sel] >= budget {
				break
			}
			if s.MaxTrials > 0 && dispatched+len(picks) >= s.MaxTrials {
				break
			}
			used[sel] = true
			picks = append(picks, pick{sel, slotFree[sel]})
		}
		if len(picks) == 0 {
			// No slot can start another trial: a budget ran out. (A searcher
			// that finished its strategy breaks below without degradation.)
			if s.MaxTrials > 0 && dispatched >= s.MaxTrials {
				degrade("trial-budget", "trial budget exhausted after %d trials", ctx.Trial)
			} else {
				degrade("budget", "virtual tuning budget exhausted after %d trials (%.0f virtual seconds)",
					ctx.Trial, budget)
			}
			break
		}

		// Gather proposals: deferred ones first, then the searcher. Proposal
		// latency is real time (the searcher thinking), not virtual time, and
		// feeds the searcher_propose_seconds histogram only — never the trace.
		proposals := carry
		carry = nil
		proposeHist := s.Telemetry.Histogram("searcher_propose_seconds", telemetry.DefLatencyBuckets)
		if !exhausted && len(proposals) < len(picks) {
			if bs, ok := searcher.(BatchSearcher); ok {
				ctx.Elapsed = picks[len(proposals)].start
				t0 := time.Now()
				got := bs.ProposeBatch(ctx, len(picks)-len(proposals))
				proposeHist.Observe(time.Since(t0).Seconds())
				if len(got) == 0 {
					exhausted = true
				}
				proposals = append(proposals, got...)
			} else {
				for len(proposals) < len(picks) {
					ctx.Elapsed = picks[len(proposals)].start
					t0 := time.Now()
					cfg := searcher.Propose(ctx)
					proposeHist.Observe(time.Since(t0).Seconds())
					if cfg == nil {
						exhausted = true
						break
					}
					proposals = append(proposals, cfg)
				}
			}
		}

		// Assign proposals to slots. A configuration key runs at most once
		// per round: concurrent measurements of one key would race on its
		// noise-rep sequence and break determinism, so duplicates wait for
		// the next round (where they replay from the runner's cache). A
		// proposal landing in a quarantined subtree still takes its slot —
		// as a synthetic zero-cost rejection the runner never sees, so the
		// slot's clock does not move and the searcher is told immediately.
		batch := make([]*trial, 0, len(picks))
		inRound := make(map[string]bool, len(picks))
		synthetics := 0
		for _, cfg := range proposals {
			key := cfg.Key()
			if len(batch) == len(picks) || inRound[key] {
				carry = append(carry, cfg)
				continue
			}
			inRound[key] = true
			p := picks[len(batch)]
			tr := &trial{seq: seq, slot: p.slot, start: p.start, cfg: cfg, key: key}
			if rob.quar != nil {
				if label, blocked := rob.quar.blocked(cfg, key, ctx.Trial, p.start); blocked {
					tr.m = syntheticQuarantined(key, label)
					tr.synthetic = true
					tr.qlabel = label
					synthetics++
				}
			}
			batch = append(batch, tr)
			s.Trace.Emit(telemetry.Event{
				T: p.start, Kind: telemetry.EvProposal, Key: key, Worker: p.slot,
			})
			seq++
		}
		if len(batch) == 0 {
			break
		}
		dispatched += len(batch)

		// Satisfy recorded trials from the resume log: the replay prefix
		// reconstructs searcher and RNG state without re-measuring. A
		// recorded seq whose key disagrees with the engine's proposal means
		// the determinism inputs changed — fail rather than splice
		// mismatched histories. Synthetic rejections never reach the runner
		// either way (a resumed quarantine re-derives them identically).
		fresh := batch
		if synthetics > 0 || (ck != nil && len(ck.replay) > 0) {
			fresh = make([]*trial, 0, len(batch))
			for _, tr := range batch {
				if ck != nil {
					if rec, ok := ck.replay[tr.seq]; ok {
						if rec.Key != tr.key {
							return fmt.Errorf("core: resume diverged at trial %d: checkpoint recorded %q, session proposed %q",
								tr.seq, rec.Key, tr.key)
						}
						tr.m = rec.M
						continue
					}
				}
				if !tr.synthetic {
					fresh = append(fresh, tr)
				}
			}
		}

		// Measure the fresh trials concurrently. This is where the session
		// overlaps real work: up to `workers` Runner.Measure calls in
		// flight — or, when the runner batches (runner.BatchMeasurer, the
		// dispatch pool), the whole round in one call. The two paths are
		// byte-equivalent by the BatchMeasurer contract.
		switch {
		case batched:
			cfgs := make([]*flags.Config, len(fresh))
			for i, tr := range fresh {
				cfgs[i] = tr.cfg
			}
			for i, m := range bm.MeasureBatch(cfgs, reps) {
				fresh[i].m = m
			}
		case len(fresh) > 0:
			fan.measure(fresh)
		}

		// Resolve the straggler watchdog in dispatch order before delivery:
		// each trial's effective cost is what its slot is charged, and the
		// watchdog's cost window advances deterministically (it never sees
		// goroutine scheduling). Replayed trials pass through the same
		// decisions, so a resumed session rebuilds the identical window.
		for _, tr := range batch {
			tr.eff = tr.m.CostSeconds
			if rob.hg == nil || tr.synthetic {
				continue
			}
			tr.eff, tr.hedged = rob.hg.decide(tr.m)
			if tr.hedged != "" {
				s.Telemetry.Counter("session_hedges_total").Inc()
				if tr.hedged == "hedge-won" {
					s.Telemetry.Counter("session_hedge_wins_total").Inc()
				}
			}
			rob.hg.observe(tr.eff)
		}
		if rob.hg != nil {
			if d, armed := rob.hg.deadline(); armed {
				s.Telemetry.Gauge("session_hedge_deadline_virtual_seconds").Set(d)
			}
		}

		// Deliver observations in virtual-completion order (dispatch order
		// breaks ties), charging each trial to its slot. The searcher sees
		// results as they would complete on a real farm, not in proposal
		// order — the synchronous-information assumption is gone.
		sort.Slice(batch, func(i, j int) bool {
			fi := batch[i].start + batch[i].eff
			fj := batch[j].start + batch[j].eff
			if fi != fj {
				return fi < fj
			}
			return batch[i].seq < batch[j].seq
		})
		for _, tr := range batch {
			slotFree[tr.slot] = tr.start + tr.eff
			ctx.Trial++
			ctx.Elapsed = slotFree[tr.slot]
			if ck != nil {
				ck.log = append(ck.log, checkpoint.TrialRecord{Seq: tr.seq, Key: tr.key, M: tr.m})
			}
			s.Telemetry.Counter("session_trials_total").Inc()
			if tr.m.FromCache {
				out.CacheHits++
				s.Telemetry.Counter("session_cache_hits_total").Inc()
			}
			if tr.eff == 0 {
				freeTrials++
			} else {
				freeTrials = 0
			}
			if tr.synthetic {
				out.Quarantined++
			} else if tr.m.Failed {
				out.Failures++
				s.Telemetry.Counter("session_failures_total").Inc()
			}
			if !tr.synthetic {
				out.recordAttempts(tr.m)
			}
			searcher.Observe(ctx, tr.cfg, tr.m)
			if rob.quar != nil && !tr.synthetic {
				rob.quar.observe(tr.cfg, tr.key, ctx.Trial, ctx.Elapsed, tr.m)
			}
			sc := ctx.Objective.Score(tr.m)
			// After an epoch transition the incumbent's score describes the
			// old regime: the first successful post-drift observation replaces
			// it unconditionally, re-anchoring BestWall in the new regime
			// (the demoted winner itself is re-proposed first, so this is
			// normally its own post-drift re-measurement).
			if sc < ctx.BestWall || (ds.demoted && !tr.synthetic && !math.IsInf(sc, 1)) {
				ctx.Best, ctx.BestWall = tr.cfg.Clone(), sc
				out.BestMeasurement = tr.m
				ds.demoted = false
			}
			// Feed the drift detector in delivery order — the serialization
			// that makes its events deterministic. Synthetic quarantine
			// rejections never ran and say nothing about the workload.
			if !tr.synthetic {
				ds.observe(sc, ctx.Trial)
			}
			// Commit the trial's runner-side events (attempts, retries,
			// faults) stamped with the virtual completion time, then mark the
			// observation. Failed scores are +Inf, which JSON cannot carry —
			// the failure kind rides in Detail instead.
			s.Trace.Commit(tr.key, ctx.Elapsed)
			if tr.synthetic {
				s.Trace.Emit(telemetry.Event{
					T: ctx.Elapsed, Kind: telemetry.EvQuarantine, Key: tr.key,
					Worker: tr.slot, Trial: ctx.Trial, Detail: "skip:" + tr.qlabel,
				})
			}
			if tr.hedged != "" {
				s.Trace.Emit(telemetry.Event{
					T: ctx.Elapsed, Kind: telemetry.EvHedge, Key: tr.key,
					Worker: tr.slot, Trial: ctx.Trial, Cost: tr.eff, Detail: tr.hedged,
				})
			}
			ev := telemetry.Event{
				T: ctx.Elapsed, Kind: telemetry.EvObserve, Key: tr.key,
				Worker: tr.slot, Trial: ctx.Trial, Cost: tr.eff,
			}
			if !math.IsInf(sc, 1) {
				ev.Score = sc
			} else {
				ev.Detail = string(tr.m.Failure)
			}
			s.Trace.Emit(ev)
			s.Telemetry.Gauge("session_best_score").Set(ctx.BestWall)
			s.Telemetry.Gauge("session_elapsed_virtual_seconds").Set(ctx.Elapsed)
			tp := TracePoint{Elapsed: ctx.Elapsed, BestWall: ctx.BestWall, Trial: ctx.Trial, Flakes: out.Flakes}
			out.Trace = append(out.Trace, tp)
			if s.OnProgress != nil {
				s.OnProgress(tp)
			}
		}
		s.Telemetry.Counter("session_rounds_total").Inc()
		s.Trace.Emit(telemetry.Event{T: ctx.Elapsed, Kind: telemetry.EvBarrier, Trial: ctx.Trial})
		// A drift confirmed mid-round transitions here, at the barrier: the
		// epoch closes, the searcher is rebuilt warm, and the round-local
		// machinery (deferred proposals, the exhaustion latch, the stall
		// counter) restarts for the new regime. Transitioning before the
		// checkpoint write means the snapshot always records the epoch it
		// was taken in.
		if ds.pending != nil {
			next, err := s.openEpoch(ctx, out, ds, ck, rob)
			if err != nil {
				return err
			}
			searcher = next
			exhausted = false
			carry = nil
			freeTrials = 0
		}
		// A resumed keeper's cadence counts from the loaded file's last
		// trial, so nothing is due inside the replay prefix: the file holds
		// that state, and the runner was restored to its end.
		if ck != nil && ck.keeper.Due(ctx.Trial) {
			s.writeCheckpoint(ck, ctx)
		}
	}
	return nil
}
