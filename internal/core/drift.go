package core

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/drift"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// DriftPolicy arms live re-tuning: the session watches the scores of
// delivered trials with a drift.Detector, and when a workload drift is
// confirmed it opens a new epoch — the incumbent best is demoted to a
// candidate (re-proposed first, but no longer trusted), the searcher is
// rebuilt and warm-started from the demoted winner plus any transfer
// priors, and the robustness machinery (hedging window, quarantine,
// stall counter) restarts for the new regime. The virtual budget and the
// trial cap stay session-global: re-tuning spends the remaining budget,
// it does not get more.
type DriftPolicy struct {
	// Detector parameterizes the Page–Hinkley drift test; the zero value
	// means the drift package defaults.
	Detector drift.Config
}

// EpochOutcome summarizes one tuning epoch of a drift-enabled session.
// Epoch 0 is the pre-drift search; each confirmed drift closes the current
// epoch and opens the next. The last epoch is closed by budget exhaustion
// (or searcher completion) and carries zero drift fields.
type EpochOutcome struct {
	// Epoch is the 0-based epoch index.
	Epoch int
	// Phase is the workload phase in effect when the epoch closed.
	Phase int
	// Trials is the number of observations delivered during the epoch.
	Trials int
	// BestKey, BestScore, and Best describe the epoch's incumbent at close —
	// for a drift-closed epoch, the best of the regime that just ended.
	BestKey   string
	BestScore float64
	Best      *flags.Config
	// Drift provenance: the confirmation that closed this epoch. DriftTrial
	// is the session trial number of the confirming observation (0 when the
	// epoch was closed by budget, not drift); DriftScore the observed score;
	// DriftMean the detector's pre-drift level estimate (geometric mean);
	// DriftStat the Page–Hinkley statistic at confirmation.
	DriftTrial int
	DriftScore float64
	DriftMean  float64
	DriftStat  float64
	// StaleKey and StaleScore name the incumbent this epoch inherited from
	// its predecessor — the demoted pre-drift winner — and the score it held
	// under the pre-drift regime. Empty for epoch 0, which starts from the
	// baseline instead.
	StaleKey   string
	StaleScore float64
}

// driftFingerprint renders the session's drift options canonically for the
// checkpoint metadata. Empty when drift is entirely off, so stationary
// snapshots stay byte-identical to pre-drift builds.
func driftFingerprint(d *DriftPolicy, phases *jvmsim.PhaseSchedule) string {
	var parts []string
	if d != nil {
		parts = append(parts, "detect="+d.Detector.String())
	}
	if ps := phases.String(); ps != "" {
		parts = append(parts, "phases="+ps)
	}
	return strings.Join(parts, ";")
}

// driftState bundles the live re-tuning machinery threaded through the run
// loop: the phase schedule driving the workload, the detector watching the
// delivered scores, and the epoch bookkeeping. Always non-nil; phases and
// det are nil when the corresponding feature is off.
type driftState struct {
	phases *jvmsim.PhaseSchedule
	setter runner.PhaseSetter // non-nil iff phases has shifts
	det    *drift.Detector

	phase      int // workload phase currently set on the runner
	epoch      int // current epoch index
	epochStart int // ctx.Trial when the current epoch opened
	// demoted is set at an epoch transition: the incumbent best carries a
	// pre-drift score that no post-drift measurement can be compared
	// against, so the next successful observation replaces it
	// unconditionally. Keeping the stale (finite) score in ctx.BestWall
	// until then — rather than +Inf — keeps every trace point, checkpoint,
	// and gauge JSON-encodable.
	demoted bool
	// staleKey/staleScore describe the incumbent the current epoch
	// inherited (empty for epoch 0); recorded on the epoch's outcome.
	staleKey   string
	staleScore float64
	// pending is a drift confirmed mid-round; the transition happens at the
	// round barrier, where no measurement is in flight. pendingTrial is the
	// session trial number of the confirming observation.
	pending      *drift.Event
	pendingTrial int
}

// observe feeds one delivered, non-synthetic observation to the detector.
func (ds *driftState) observe(score float64, trial int) {
	if ds.det == nil || ds.pending != nil {
		return
	}
	if ev, ok := ds.det.Observe(score); ok {
		ds.pending = &ev
		ds.pendingTrial = trial
	}
}

// advancePhase applies the schedule at a round boundary: if the dispatched
// count has crossed a shift's trial threshold, the runner's workload moves
// to the new phase before the next batch is dispatched. Rounds are
// barriers, so no Measure call is in flight.
func (s *Session) advancePhase(ctx *Context, ds *driftState, dispatched int) error {
	if ds.setter == nil {
		return nil
	}
	p := ds.phases.PhaseAt(dispatched)
	if p == ds.phase {
		return nil
	}
	shift := ds.phases.ShiftAt(p)
	if err := ds.setter.SetPhase(p, shift); err != nil {
		return fmt.Errorf("core: phase shift at trial %d: %w", dispatched, err)
	}
	ds.phase = p
	s.Telemetry.Counter("session_phase_shifts_total").Inc()
	s.Telemetry.Gauge("session_phase").Set(float64(p))
	s.Trace.Emit(telemetry.Event{
		T: ctx.Elapsed, Kind: telemetry.EvPhase, Trial: ctx.Trial,
		Detail: fmt.Sprintf("ph%d|%s", p, shift),
	})
	return nil
}

// closeEpoch appends the current epoch's summary to the outcome. ev is the
// drift that closed it, or nil when the session ended inside the epoch.
func (ds *driftState) closeEpoch(ctx *Context, out *Outcome, ev *drift.Event) {
	eo := EpochOutcome{
		Epoch:      ds.epoch,
		Phase:      ds.phase,
		Trials:     ctx.Trial - ds.epochStart,
		BestKey:    ctx.Best.Key(),
		BestScore:  ctx.BestWall,
		Best:       ctx.Best.Clone(),
		StaleKey:   ds.staleKey,
		StaleScore: ds.staleScore,
	}
	if ev != nil {
		eo.DriftTrial = ds.pendingTrial
		eo.DriftScore = ev.Score
		eo.DriftMean = ev.Mean
		eo.DriftStat = ev.Stat
	}
	out.Epochs = append(out.Epochs, eo)
}

// openEpoch performs the re-tune transition at a round barrier after a
// confirmed drift: close the current epoch, demote the incumbent, rebuild
// the searcher warm-started from the demoted winner plus the session's
// per-epoch priors, and restart the detector and robustness machinery for
// the new regime. Returns the new searcher.
//
// A resuming session replays recorded epochs instead of re-deriving their
// priors: EpochPriors may consult a transfer store whose contents changed
// since the checkpoint, and splicing different priors into the replay
// would diverge it. Everything else re-derives deterministically from the
// trial log.
func (s *Session) openEpoch(ctx *Context, out *Outcome, ds *driftState, ck *ckState, rob *robState) (Searcher, error) {
	ev := ds.pending
	ds.pending = nil
	ds.closeEpoch(ctx, out, ev)

	stale := ctx.Best.Clone()
	staleScore := ctx.BestWall
	s.Trace.Emit(telemetry.Event{
		T: ctx.Elapsed, Kind: telemetry.EvDrift, Key: stale.Key(),
		Trial: ds.pendingTrial, Score: ev.Score,
		Detail: fmt.Sprintf("epoch=%d stat=%.4g mean=%.4g", ds.epoch+1, ev.Stat, ev.Mean),
	})
	s.Telemetry.Counter("session_drift_events_total").Inc()

	ds.epoch++
	ds.epochStart = ctx.Trial
	ds.demoted = true
	ds.staleKey = stale.Key()
	ds.staleScore = staleScore
	s.Telemetry.Gauge("session_epoch").Set(float64(ds.epoch))

	// The demoted winner is always the first prior: it is the best guess
	// until the new regime says otherwise, and re-measuring it first gives
	// the epoch its post-drift reference score.
	priors, err := s.epochPriors(ctx, ds, ck, stale, staleScore)
	if err != nil {
		return nil, err
	}
	// Priors enter the epoch in their canonical form, the form the
	// checkpoint records. A live epoch and its resume, from a checkpoint of
	// any build, then hand the searcher the same configs, and a searcher
	// that reads explicit assignments (the surrogate credits them) makes
	// the same choices either way.
	for i := range priors {
		priors[i].Cfg = priors[i].Cfg.Canonical()
	}
	if ck != nil {
		ck.epochs = append(ck.epochs, epochRecord(ds, priors))
	}

	// Fresh regime, fresh machinery: the detector's level estimate, the
	// hedger's cost window, and the quarantine's failure streaks all
	// describe the old workload.
	ds.det.Reset()
	if s.Hedge != nil {
		rob.hg = newHedger()
	}
	if s.Quarantine != nil {
		rob.quar = newQuarantine(ctx.Tree, s.Telemetry, s.Trace)
	}
	return NewWarmStart(s.NewSearcher(), priors), nil
}

// epochPriors assembles the warm-start priors for the epoch just opened:
// on a live run, the demoted incumbent followed by whatever EpochPriors
// contributes (transfer-store hits for the drifted workload); on a resumed
// run, the checkpoint's recorded priors verbatim.
func (s *Session) epochPriors(ctx *Context, ds *driftState, ck *ckState, stale *flags.Config, staleScore float64) ([]PriorSample, error) {
	if ck != nil {
		if rec, ok := ck.epochReplay[ds.epoch]; ok {
			if rec.Trial != ctx.Trial || rec.Phase != ds.phase {
				return nil, fmt.Errorf("core: resume diverged: checkpoint opened epoch %d at trial %d phase %d, session at trial %d phase %d",
					ds.epoch, rec.Trial, rec.Phase, ctx.Trial, ds.phase)
			}
			priors := make([]PriorSample, 0, len(rec.Priors))
			for _, pr := range rec.Priors {
				cfg, err := flags.ParseArgs(ctx.Reg, pr.Args)
				if err != nil {
					return nil, fmt.Errorf("core: resume epoch %d prior %q: %w", ds.epoch, pr.Key, err)
				}
				if key := cfg.Key(); key != pr.Key {
					return nil, fmt.Errorf("core: resume epoch %d prior: recorded key %q but args derive %q", ds.epoch, pr.Key, key)
				}
				priors = append(priors, PriorSample{Cfg: cfg, Norm: pr.Norm})
			}
			return priors, nil
		}
	}
	norm := 1.0
	if ctx.DefaultWall > 0 {
		norm = staleScore / ctx.DefaultWall
	}
	priors := []PriorSample{{Cfg: stale, Norm: norm}}
	if s.EpochPriors != nil {
		priors = append(priors, s.EpochPriors(ds.epoch, ds.phase)...)
	}
	return priors, nil
}

// epochRecord serializes the epoch transition for the checkpoint.
func epochRecord(ds *driftState, priors []PriorSample) checkpoint.EpochRecord {
	rec := checkpoint.EpochRecord{
		Epoch:  ds.epoch,
		Phase:  ds.phase,
		Trial:  ds.epochStart,
		Priors: make([]checkpoint.PriorRecord, len(priors)),
	}
	for i, p := range priors {
		rec.Priors[i] = checkpoint.PriorRecord{
			Key:  p.Cfg.Key(),
			Args: p.Cfg.ExplicitArgs(),
			Norm: p.Norm,
		}
	}
	return rec
}
