package hotspot

import (
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/faultinject"
	"repro/internal/jvmsim"
)

// Epoch summarizes one tuning epoch of a drift-enabled session (see
// docs/DRIFT.md). Epoch 0 is the pre-drift search; each confirmed workload
// drift closes the current epoch and opens the next, demoting the stale
// winner and re-tuning for the new regime. The last epoch is closed by
// session end and carries no drift provenance.
type Epoch struct {
	// Epoch is the 0-based epoch index; Phase the workload phase the epoch
	// closed under (0 = the base profile).
	Epoch int `json:"epoch"`
	Phase int `json:"phase"`
	// Trials is the number of measurements delivered during the epoch.
	Trials int `json:"trials"`
	// BestWall and CommandLine describe the epoch's best configuration at
	// close — for a drift-closed epoch, the best of the regime that ended.
	BestWall    float64  `json:"best_wall"`
	CommandLine []string `json:"command_line,omitempty"`
	// Drift provenance: the confirmation that closed this epoch. DriftTrial
	// is the session trial of the confirming observation, DriftScore the
	// observed score, DriftStat the Page–Hinkley statistic at confirmation.
	// All zero when the epoch was closed by session end, not drift.
	DriftTrial int     `json:"drift_trial,omitempty"`
	DriftScore float64 `json:"drift_score,omitempty"`
	DriftStat  float64 `json:"drift_stat,omitempty"`
	// StaleWall is the score the demoted pre-drift incumbent held when this
	// epoch inherited it; 0 for epoch 0, which starts from the baseline.
	StaleWall float64 `json:"stale_wall,omitempty"`
}

// epochsFromOutcome maps the engine's per-epoch outcomes to the public form.
func epochsFromOutcome(out *core.Outcome) []Epoch {
	if len(out.Epochs) == 0 {
		return nil
	}
	eps := make([]Epoch, len(out.Epochs))
	for i, eo := range out.Epochs {
		eps[i] = Epoch{
			Epoch:      eo.Epoch,
			Phase:      eo.Phase,
			Trials:     eo.Trials,
			BestWall:   eo.BestScore,
			DriftTrial: eo.DriftTrial,
			DriftScore: eo.DriftScore,
			DriftStat:  eo.DriftStat,
			StaleWall:  eo.StaleScore,
		}
		if eo.Best != nil {
			eps[i].CommandLine = eo.Best.CommandLine()
		}
	}
	return eps
}

// driftSchedule extracts the chaos plan's drift-at triggers into the
// session's phase schedule. Like the crash point, drift-at is a
// session-level trigger, not a measurement fault: the plan's copy is
// cleared so the measurement layer never sees it.
func driftSchedule(plan *faultinject.Plan) *jvmsim.PhaseSchedule {
	at := plan.DriftAtTrials
	plan.DriftAtTrials = nil
	return jvmsim.DefaultSchedule(at)
}

// driftConfig maps the public sensitivity knob, which CheckOptions has
// checked, onto the detector: the Page–Hinkley decision threshold is the
// calibrated default divided by the sensitivity, so 1 (or unset) is the
// calibrated default, 2 fires on half the evidence, 0.5 needs twice as
// much.
func driftConfig(opts Options) drift.Config {
	s := opts.DriftSensitivity
	if s == 0 {
		s = 1
	}
	return drift.Config{Lambda: drift.DefaultLambda / s}
}
