package core

import (
	"math"

	"repro/internal/flags"
	"repro/internal/runner"
)

// Ensemble is an OpenTuner-style meta-searcher: it maintains a portfolio of
// sub-searchers and allocates each trial to one of them with a multi-armed
// bandit over recent credit. OpenTuner is the closest prior system to the
// paper's tuner (general-purpose, ensemble-of-techniques, budgeted), so
// this searcher is the reproduction's stand-in for an "off-the-shelf
// auto-tuner pointed at the JVM" — hierarchy-blind, but adaptive.
//
// Credit assignment follows OpenTuner's AUC bandit in spirit: a sub-searcher
// earns credit when its proposal improves on the global best, decayed over
// a sliding window; arms are chosen by credit with an exploration bonus.
type Ensemble struct {
	arms    []ensembleArm
	pending map[*flags.Config]*armOutcome
	history []*armOutcome
	trialN  int
}

type ensembleArm struct {
	searcher Searcher
	uses     int
}

// armOutcome credits one proposal to the arm that made it. Entries are
// shared between the sliding history window and the pending map, so an
// observation that arrives after the window slid past it (multi-worker
// sessions deliver out of proposal order) still reaches the right arm.
type armOutcome struct {
	arm      int
	improved bool
}

// NewEnsemble builds the default portfolio: greedy local search, a flat GA,
// annealing, and pure random — the classic OpenTuner technique mix.
func NewEnsemble() *Ensemble {
	return &Ensemble{
		arms: []ensembleArm{
			{searcher: &HillClimb{}},
			{searcher: &GeneticFlat{}},
			{searcher: &Anneal{}},
			{searcher: Random{}},
		},
	}
}

// Name implements Searcher.
func (e *Ensemble) Name() string { return "ensemble" }

// The sliding history length for credit, and the UCB-style exploration
// constant.
const (
	ensembleWindow       = 50
	ensembleExplorationC = 1.4
)

// Propose implements Searcher: pick an arm by windowed credit + UCB
// exploration, then delegate.
func (e *Ensemble) Propose(ctx *Context) *flags.Config {
	e.trialN++
	arm := e.pickArm(ctx)
	cfg := e.arms[arm].searcher.Propose(ctx)
	if cfg == nil {
		// The chosen technique is exhausted; fall back to random.
		cfg = Random{}.Propose(ctx)
	}
	e.arms[arm].uses++
	if e.pending == nil {
		e.pending = make(map[*flags.Config]*armOutcome)
	}
	out := &armOutcome{arm: arm}
	e.pending[cfg] = out
	e.history = append(e.history, out)
	if len(e.history) > ensembleWindow {
		e.history = e.history[1:]
	}
	return cfg
}

// pickArm scores each arm by recent success rate plus an exploration bonus.
func (e *Ensemble) pickArm(ctx *Context) int {
	// Ensure every arm is tried once first.
	for i := range e.arms {
		if e.arms[i].uses == 0 {
			return i
		}
	}
	credit := make([]float64, len(e.arms))
	uses := make([]float64, len(e.arms))
	for _, h := range e.history {
		uses[h.arm]++
		if h.improved {
			credit[h.arm]++
		}
	}
	bestArm, bestScore := 0, math.Inf(-1)
	total := float64(len(e.history)) + 1
	c := ensembleExplorationC
	for i := range e.arms {
		u := uses[i]
		if u == 0 {
			u = 0.5 // recently unused arms get a fresh chance
		}
		score := credit[i]/u + c*math.Sqrt(math.Log(total)/u)
		// Deterministic tie-break by index; add tiny jitter from the
		// session RNG so equal arms rotate.
		score += ctx.Rng.Float64() * 1e-6
		if score > bestScore {
			bestArm, bestScore = i, score
		}
	}
	return bestArm
}

// Observe implements Searcher: forward the measurement to the arm that made
// the proposal and record credit.
func (e *Ensemble) Observe(ctx *Context, cfg *flags.Config, m runner.Measurement) {
	out, ok := e.pending[cfg]
	if !ok {
		return
	}
	delete(e.pending, cfg)
	e.arms[out.arm].searcher.Observe(ctx, cfg, m)
	if sc := ctx.Score(m); sc < ctx.BestWall {
		out.improved = true
	}
}
