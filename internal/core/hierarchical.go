package core

import (
	"sort"

	"repro/internal/flags"
	"repro/internal/hierarchy"
	"repro/internal/runner"
)

// Hierarchical is the paper's searcher. It exploits the flag tree twice:
//
//  1. Branch survey. The tree's decision points (garbage collector ×
//     compilation mode) span eight branch combinations; each is measured
//     once at otherwise-default settings, and a beam of the best
//     combinations is kept. This resolves the coarse, categorical part of
//     the space with eight trials instead of leaving collector choice to
//     chance mutations.
//
//  2. Guided refinement. Within each beam entry, a steady-state population
//     evolves only the flags the tree marks *active* under that branch —
//     CMS occupancy knobs never waste a trial under the parallel collector,
//     CompileThreshold is never mutated while tiered compilation is on, and
//     proposals are pre-checked against the tree's dependency rules so
//     configurations that cannot start are never launched.
//
// Occasional exploration trials revisit non-beam branches in case the
// survey was misled by noise.
type Hierarchical struct {
	// BeamWidth is how many branch combinations refinement keeps (default 2).
	BeamWidth int

	surveyed  bool
	combos    []branchCombo
	surveyIdx int
	beams     []*beam
	pending   map[*flags.Config]pendingRef
	proposals int
}

// pendingRef remembers what an outstanding proposal was for, so its
// observation — which in multi-worker sessions may arrive after further
// proposals — lands in the right place: a survey combo, a beam's
// population, or (both nil) an exploration trial.
type pendingRef struct {
	combo *branchCombo
	beam  *beam
}

type branchCombo struct {
	label  string
	apply  func(c *flags.Config)
	base   *flags.Config
	active []flags.ID // tunable flags active under this combination
	wall   float64
	seen   bool
}

type beam struct {
	combo *branchCombo
	pop   []individual
}

// NewHierarchical returns the paper's searcher with default parameters.
func NewHierarchical() *Hierarchical { return &Hierarchical{} }

// Name implements Searcher.
func (h *Hierarchical) Name() string { return "hierarchical" }

func (h *Hierarchical) beamWidth() int {
	if h.BeamWidth > 0 {
		return h.BeamWidth
	}
	return 2
}

// Each beam evolves a population of hierPopSize, and every
// hierExploreEvery-th proposal is an exploration trial.
const (
	hierPopSize      = 10
	hierExploreEvery = 50
)

// initCombos enumerates the tree's branch cross product.
func (h *Hierarchical) initCombos(ctx *Context) {
	choices := ctx.Tree.Choices()
	combos := []branchCombo{{label: "", apply: func(*flags.Config) {}}}
	for _, ch := range choices {
		var next []branchCombo
		for _, prev := range combos {
			for _, b := range ch.Branches {
				prevApply, branchApply := prev.apply, b.Apply
				label := prev.label
				if label != "" {
					label += "+"
				}
				next = append(next, branchCombo{
					label: label + b.Name,
					apply: func(c *flags.Config) { prevApply(c); branchApply(c) },
				})
			}
		}
		combos = next
	}
	for i := range combos {
		base := flags.NewConfig(ctx.Reg)
		combos[i].apply(base)
		combos[i].base = base
		combos[i].active = ctx.Tree.ActiveFlags(base)
	}
	h.combos = combos
}

// Propose implements Searcher.
func (h *Hierarchical) Propose(ctx *Context) *flags.Config {
	if h.combos == nil {
		h.initCombos(ctx)
	}
	h.proposals++

	// Phase 1: survey each branch combination once.
	if !h.surveyed {
		if h.surveyIdx < len(h.combos) {
			c := &h.combos[h.surveyIdx]
			h.surveyIdx++
			h.note(c.base, pendingRef{combo: c})
			return c.base
		}
		h.finishSurvey(ctx)
	}

	// Occasional exploration of a non-beam branch with a random mutation.
	if h.proposals%hierExploreEvery == 0 {
		if cfg := h.exploreProposal(ctx); cfg != nil {
			h.note(cfg, pendingRef{})
			return cfg
		}
	}

	// Phase 2: guided refinement within a beam.
	b := h.pickBeam(ctx)
	cfg := h.refineProposal(ctx, b)
	h.note(cfg, pendingRef{beam: b})
	return cfg
}

// ProposeBatch implements BatchSearcher. During the branch survey it hands
// out the remaining un-surveyed combos (they are independent, so the farm
// measures them in parallel) but stops the batch at the survey boundary:
// the beams must be seeded from *observed* survey results, and the session
// delivers every observation of a round before asking for the next batch.
// After the survey, refinement proposals are drawn normally.
func (h *Hierarchical) ProposeBatch(ctx *Context, n int) []*flags.Config {
	if h.combos == nil {
		h.initCombos(ctx)
	}
	var out []*flags.Config
	for len(out) < n {
		boundary := !h.surveyed && h.surveyIdx == len(h.combos)
		if boundary && len(out) > 0 {
			return out // finish the survey next round, fully informed
		}
		cfg := h.Propose(ctx)
		if cfg == nil {
			return out
		}
		out = append(out, cfg)
	}
	return out
}

func (h *Hierarchical) note(cfg *flags.Config, ref pendingRef) {
	if h.pending == nil {
		h.pending = make(map[*flags.Config]pendingRef)
	}
	h.pending[cfg] = ref
}

// finishSurvey ranks the surveyed combos and seeds the beams.
func (h *Hierarchical) finishSurvey(ctx *Context) {
	h.surveyed = true
	ranked := make([]*branchCombo, 0, len(h.combos))
	for i := range h.combos {
		if h.combos[i].seen {
			ranked = append(ranked, &h.combos[i])
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].wall < ranked[j].wall })
	n := h.beamWidth()
	if n > len(ranked) {
		n = len(ranked)
	}
	for _, c := range ranked[:n] {
		h.beams = append(h.beams, &beam{
			combo: c,
			pop:   []individual{{cfg: c.base, wall: c.wall}},
		})
	}
	// Degenerate case: every combo failed (should not happen — defaults
	// run). Fall back to a beam on the raw default config.
	if len(h.beams) == 0 {
		def := flags.NewConfig(ctx.Reg)
		h.beams = append(h.beams, &beam{
			combo: &branchCombo{label: "default", apply: func(*flags.Config) {}, base: def,
				active: ctx.Tree.ActiveFlags(def)},
			pop: []individual{{cfg: def, wall: ctx.DefaultWall}},
		})
	}
}

// pickBeam selects a beam to refine, weighted toward the better one but
// keeping the runner-up alive.
func (h *Hierarchical) pickBeam(ctx *Context) *beam {
	if len(h.beams) == 1 {
		return h.beams[0]
	}
	// 70% best beam, 30% spread over the rest.
	if ctx.Rng.Float64() < 0.7 {
		best := h.beams[0]
		for _, b := range h.beams[1:] {
			if b.pop[0].wall < best.pop[0].wall {
				best = b
			}
		}
		return best
	}
	return h.beams[ctx.Rng.Intn(len(h.beams))]
}

// refineProposal evolves a beam's population on its active flags only.
// Proposals are validated against the hierarchy's dependency rules before
// they are ever launched; invalid mutants are repaired by re-rolling.
func (h *Hierarchical) refineProposal(ctx *Context, b *beam) *flags.Config {
	active := b.combo.active
	for attempt := 0; attempt < 8; attempt++ {
		var child *flags.Config
		if len(b.pop) >= 4 && ctx.Rng.Float64() < 0.4 {
			p1 := b.pop[ctx.Rng.Intn(len(b.pop))]
			p2 := b.pop[ctx.Rng.Intn(len(b.pop))]
			child = flags.Crossover(p1.cfg, p2.cfg, active, ctx.Rng)
			// Crossover only copies active flags; reapply the branch
			// selection so the child stays inside the beam.
			b.combo.apply(child)
		} else {
			parent := b.pop[ctx.Rng.Intn(len(b.pop))]
			child = parent.cfg.Clone()
		}
		n := 1 + ctx.Rng.Intn(3)
		for i := 0; i < n; i++ {
			flags.MutateFlag(child, active[ctx.Rng.Intn(len(active))], ctx.Rng)
		}
		if hierarchy.Validate(child) == nil {
			return child
		}
	}
	// Could not repair; fall back to the beam base.
	return b.combo.base.Clone()
}

// exploreProposal mutates a random non-beam branch base.
func (h *Hierarchical) exploreProposal(ctx *Context) *flags.Config {
	inBeam := map[string]bool{}
	for _, b := range h.beams {
		inBeam[b.combo.label] = true
	}
	var others []*branchCombo
	for i := range h.combos {
		if !inBeam[h.combos[i].label] {
			others = append(others, &h.combos[i])
		}
	}
	if len(others) == 0 {
		return nil
	}
	c := others[ctx.Rng.Intn(len(others))]
	cfg := c.base.Clone()
	for i := 0; i < 2; i++ {
		flags.MutateFlag(cfg, c.active[ctx.Rng.Intn(len(c.active))], ctx.Rng)
	}
	if hierarchy.Validate(cfg) != nil {
		return nil
	}
	return cfg
}

// Observe implements Searcher.
func (h *Hierarchical) Observe(ctx *Context, cfg *flags.Config, m runner.Measurement) {
	ref, ok := h.pending[cfg]
	if !ok {
		return
	}
	delete(h.pending, cfg)
	sc := ctx.Score(m)
	if ref.combo != nil {
		// Survey phase: attach the result to its combo.
		ref.combo.wall = sc
		ref.combo.seen = !m.Failed
		return
	}
	b := ref.beam
	if b == nil {
		return // exploration trial: best-tracking happens in the session
	}
	ind := individual{cfg: cfg, wall: sc}
	if len(b.pop) < hierPopSize {
		b.pop = append(b.pop, ind)
	} else {
		worst := 0
		for i := range b.pop {
			if b.pop[i].wall >= b.pop[worst].wall {
				worst = i
			}
		}
		if ind.wall < b.pop[worst].wall {
			b.pop[worst] = ind
		}
	}
	sort.Slice(b.pop, func(i, j int) bool { return b.pop[i].wall < b.pop[j].wall })
}
