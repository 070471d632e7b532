package hotspot

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/transfer"
	"repro/internal/workload"
)

// TransferInfo is the warm-start provenance of a tuning session that ran
// with Options.TransferDir set: what the knowledge store contributed going
// in, and whether this session's own result was recorded coming out.
type TransferInfo struct {
	// StoreEntries is the knowledge-base size at session start.
	StoreEntries int `json:"store_entries"`
	// Hits is the number of comparable stored fingerprint groups found;
	// Priors is how many of their configurations survived validation and
	// were injected as the session's first proposals.
	Hits   int `json:"hits"`
	Priors int `json:"priors"`
	// NearestWorkload and NearestDistance identify the closest stored
	// fingerprint (distance 0 = the same workload was tuned before).
	NearestWorkload string  `json:"nearest_workload,omitempty"`
	NearestDistance float64 `json:"nearest_distance,omitempty"`
	// RepairedFlags counts stored arguments dropped during validation
	// against the live flag registry (renamed or removed flags across
	// store generations).
	RepairedFlags int `json:"repaired_flags,omitempty"`
	// Recorded reports that this session's best configuration was appended
	// to the store for future sessions.
	Recorded bool `json:"recorded"`
	// EpochRecords counts the per-epoch winners of a drift session
	// additionally recorded under their shifted-workload fingerprints
	// (see docs/DRIFT.md).
	EpochRecords int `json:"epoch_records,omitempty"`
}

// transferSession carries the warm-start state of one tuning session from
// store open (before the searcher proposes anything) to result recording
// (after the session completes). All methods are nil-safe: a nil
// transferSession is a session with transfer disabled, which takes no code
// path through the transfer subsystem at all.
type transferSession struct {
	store  *transfer.Store
	fp     transfer.Fingerprint
	priors []transfer.Prior
	info   *TransferInfo
}

// transferSetup opens the knowledge store under opts.TransferDir, queries
// it for the profile's nearest fingerprints, and repairs the stored
// configurations against the standard registry the session tunes over.
//
// Degradation is the rule: an unusable store — unreadable directory, a
// future-version file this build must not touch — yields a cold start with
// zero priors, never a failed session. The one case that also disables
// *recording* is the future version: appending through an older build
// would mean rewriting (and on compaction, destroying) a newer build's
// knowledge.
func transferSetup(opts Options, prof *workload.Profile) *transferSession {
	ts := &transferSession{
		fp:   transfer.FingerprintOf(prof),
		info: &TransferInfo{},
	}
	st, err := transfer.Open(opts.TransferDir, opts.Telemetry)
	if err != nil {
		// Cold start; with no store handle nothing is recorded either.
		return ts
	}
	ts.store = st
	ts.info.StoreEntries = st.Len()
	opts.Telemetry.Gauge("transfer_store_entries").Set(float64(st.Len()))

	k := opts.TransferK
	if k <= 0 {
		k = 3
	}
	neighbors := st.Nearest(ts.fp, k)
	ts.info.Hits = len(neighbors)
	if len(neighbors) > 0 {
		ts.info.NearestWorkload = neighbors[0].Entry.Workload
		ts.info.NearestDistance = neighbors[0].Distance
		opts.Telemetry.Gauge("transfer_nearest_distance").Set(neighbors[0].Distance)
	}
	ts.priors = transfer.PriorsFrom(flags.NewRegistry(), neighbors)
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

// samples renders the priors in the form core.NewWarmStart consumes.
func (ts *transferSession) samples() []core.PriorSample {
	if ts == nil {
		return nil
	}
	out := make([]core.PriorSample, len(ts.priors))
	for i, p := range ts.priors {
		out[i] = core.PriorSample{Cfg: p.Config, Norm: p.Norm}
	}
	return out
}

// metaFingerprint renders the injected priors as the session's checkpoint
// transfer fingerprint. Deterministic in the prior set, empty when no
// priors were injected — a transfer-enabled session that found nothing in
// the store checkpoints exactly like a cold one (it IS one), while a warm
// checkpoint refuses to resume against a store whose nearest neighbours
// have changed since (replay would diverge).
func (ts *transferSession) metaFingerprint() string {
	if ts == nil || len(ts.priors) == 0 {
		return ""
	}
	keys := make([]string, len(ts.priors))
	for i, p := range ts.priors {
		keys[i] = p.Config.Key()
	}
	return fmt.Sprintf("fp=%s priors=%s", ts.fp.Key(), strings.Join(keys, "|"))
}

// finish records the session's winning configuration into the store (the
// controller is the only writer — evald measurement nodes never see the
// store) and attaches the provenance to the result.
// A drift session additionally records each drift-opened epoch's best under
// the shifted profile's fingerprint: the post-drift winner is knowledge
// about the drifted workload, not the base one, and filing it under the
// regime it was tuned for is what lets a future session that starts out in
// that regime warm-start from it.
func (ts *transferSession) finish(res *Result, opts Options, prof *workload.Profile, phases *jvmsim.PhaseSchedule, budgetSeconds float64) {
	if ts == nil {
		return
	}
	res.Transfer = ts.info
	if ts.store == nil {
		return
	}
	reps := opts.Reps
	if reps <= 0 {
		reps = 3
	}
	stamp := func(fp transfer.Fingerprint, trials int, args []string, score, baseline float64) *transfer.Entry {
		return &transfer.Entry{
			FP:            fp,
			Workload:      prof.Name,
			Suite:         prof.Suite,
			Searcher:      res.Searcher,
			Objective:     string(resolveObjective(opts.Objective)),
			Seed:          opts.Seed,
			Reps:          reps,
			Trials:        trials,
			BudgetSeconds: budgetSeconds,
			Args:          args,
			Score:         score,
			BaselineScore: baseline,
		}
	}
	// The base regime's record. For a drift session the session-level best
	// is the LAST epoch's, scored on a shifted profile — knowledge about
	// that regime, not the base one — so the base fingerprint gets epoch
	// 0's pre-drift winner instead, scored where DefaultWall was.
	var epochs []core.EpochOutcome
	if res.outcome != nil {
		epochs = res.outcome.Epochs
	}
	baseBest, baseScore, baseTrials := res.Best, res.BestWall, res.Trials
	if len(epochs) > 1 {
		baseBest, baseScore, baseTrials = epochs[0].Best, epochs[0].BestScore, epochs[0].Trials
	}
	// A best that behaves as the default configuration carries no tuning
	// knowledge (and would be skipped at load time anyway) — don't record
	// it.
	if baseBest != nil && !baseBest.AtDefaults() {
		e := stamp(ts.fp, baseTrials, baseBest.ExplicitArgs(), baseScore, res.DefaultWall)
		if err := ts.store.Append(e); err == nil {
			ts.info.Recorded = true
		}
	}
	sim := jvmsim.New()
	for i := 1; i < len(epochs); i++ {
		eo := epochs[i]
		// An epoch's tuned regime is the phase it OPENED under — the phase
		// the previous epoch closed under (EpochOutcome.Phase is the
		// closing phase: epoch 0 closes under the post-shift phase, but its
		// best was tuned and scored on the base profile). An epoch opened
		// in phase 0 (a detector false positive) is already the base
		// regime, covered above.
		tunedPhase := epochs[i-1].Phase
		if tunedPhase == 0 || eo.Best == nil || eo.Best.AtDefaults() {
			continue
		}
		shifted, err := phases.ProfileAt(prof, tunedPhase)
		if err != nil {
			continue
		}
		// The entry's baseline is the default configuration's wall on the
		// *shifted* profile — the same scale-free normalization a session
		// tuning that regime from scratch would record.
		baseline := sim.DefaultWall(flags.NewRegistry(), shifted, reps)
		e := stamp(transfer.FingerprintOf(shifted), eo.Trials, eo.Best.ExplicitArgs(), eo.BestScore, baseline)
		if ts.store.Append(e) == nil {
			ts.info.EpochRecords++
		}
	}
}

// epochPriors returns the session's per-epoch warm-start hook for drift
// re-tuning: on a confirmed drift the engine calls it with the new epoch
// and workload phase, and the hook fingerprints the shifted profile and
// queries the store for configurations tuned near that regime. Nil when
// transfer is off — the engine then warm-starts from the demoted incumbent
// alone.
func (ts *transferSession) epochPriors(prof *workload.Profile, phases *jvmsim.PhaseSchedule, k int) func(epoch, phase int) []core.PriorSample {
	if ts == nil || ts.store == nil {
		return nil
	}
	if k <= 0 {
		k = 3
	}
	return func(_, phase int) []core.PriorSample {
		shifted, err := phases.ProfileAt(prof, phase)
		if err != nil {
			return nil
		}
		priors := transfer.Priors(ts.store, flags.NewRegistry(), transfer.FingerprintOf(shifted), k)
		out := make([]core.PriorSample, len(priors))
		for i, p := range priors {
			out[i] = core.PriorSample{Cfg: p.Config, Norm: p.Norm}
		}
		return out
	}
}

// resolveObjective mirrors the session's default-objective resolution so
// store provenance matches what actually ran.
func resolveObjective(o string) core.Objective {
	if o == "" {
		return core.ObjectiveThroughput
	}
	return core.Objective(o)
}
