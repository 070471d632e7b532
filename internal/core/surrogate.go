package core

import (
	"math"

	"repro/internal/flags"
	"repro/internal/hierarchy"
	"repro/internal/runner"
)

// Surrogate is a model-guided searcher: it fits a cheap separable surrogate
// to everything measured so far — per flag, a running score estimate for
// each region of the flag's domain — and proposes configurations that
// combine each flag's apparently-best region, with ε-greedy exploration.
//
// The surrogate assumes separability, which the JVM's flag space violates
// (that is the point of the hierarchy), so this searcher doubles as an
// ablation: how far does "learn each flag independently" get against
// structure-aware search? It respects the hierarchy enough to stay
// launchable — proposals are validated and repaired — but learns nothing
// about conditional relevance.
type Surrogate struct {
	models  []*flagModel  // indexed by flag ID; nil for untunable flags
	ids     []flags.ID    // the tunable flags, in ID order
	groupOf []string      // flag ID → hierarchy subtree, for exploration weighting
	warm    []PriorSample // transfer priors folded into the model at init
	pending map[*flags.Config]bool
	seeded  int
}

type flagModel struct {
	flag *flags.Flag
	// For Bool: score sums/counts per value (false=0, true=1).
	// For Int: per bin. Enum unused by the standard catalog but handled.
	sum   []float64
	count []float64
}

// NewSurrogate returns a model-guided searcher with default parameters.
func NewSurrogate() *Surrogate { return &Surrogate{} }

// Name implements Searcher.
func (s *Surrogate) Name() string { return "surrogate" }

// The exploration rate, and the number of domain regions learned per Int
// flag.
const (
	surrogateEpsilon = 0.25
	surrogateBins    = 4
)

func (s *Surrogate) init(ctx *Context) {
	s.models = make([]*flagModel, ctx.Reg.Len())
	s.ids = ctx.Reg.TunableIDs()
	for _, id := range s.ids {
		f := ctx.Reg.FlagByID(id)
		slots := surrogateBins
		switch f.Type {
		case flags.Bool:
			slots = 2
		case flags.Enum:
			slots = len(f.Choices)
		}
		s.models[id] = &flagModel{
			flag:  f,
			sum:   make([]float64, slots),
			count: make([]float64, slots),
		}
	}
	// Group flags by the hierarchy subtree that owns them, so exploration
	// can be steered per-subtree instead of per-flag. The root's direct
	// flags form their own group; flags outside the tree get the empty
	// group and a neutral weight.
	s.groupOf = make([]string, ctx.Reg.Len())
	if ctx.Tree != nil && ctx.Tree.Root != nil {
		var walk func(n *hierarchy.Node, top string)
		walk = func(n *hierarchy.Node, top string) {
			for _, name := range n.Flags {
				if id := ctx.Reg.ID(name); id != flags.NoID && s.groupOf[id] == "" {
					s.groupOf[id] = top
				}
			}
			for _, ch := range n.Children {
				t := top
				if t == "" {
					t = ch.Name
				}
				walk(ch, t)
			}
		}
		walk(ctx.Tree.Root, "")
	}
	// Fold transfer priors into the model: each prior's explicit flags get
	// its historical baseline-relative score, exactly the units Observe
	// credits. The model starts with an opinion where earlier sessions had
	// one and stays optimistic-uncertain everywhere else.
	for _, ps := range s.warm {
		if ps.Cfg != nil {
			s.credit(ps.Cfg, ps.Norm)
		}
	}
}

// PreloadPriors implements PriorPreloader: the samples are folded into the
// per-flag slot models when the model is first built (init needs the
// session context, which is not available yet at wrapping time).
func (s *Surrogate) PreloadPriors(samples []PriorSample) {
	s.warm = append(s.warm, samples...)
}

// slotOf maps a value to its model slot.
func (m *flagModel) slotOf(v flags.Value) int {
	switch m.flag.Type {
	case flags.Bool:
		if v.B {
			return 1
		}
		return 0
	case flags.Enum:
		if v.I >= 0 && v.I < int64(len(m.sum)) {
			return int(v.I)
		}
		return 0
	default:
		span := m.flag.Max - m.flag.Min
		if span <= 0 {
			return 0
		}
		idx := int(float64(v.I-m.flag.Min) / float64(span+1) * float64(len(m.sum)))
		if idx >= len(m.sum) {
			idx = len(m.sum) - 1
		}
		if idx < 0 {
			idx = 0
		}
		return idx
	}
}

// bestSlot returns the slot with the lowest mean score; unobserved slots
// are optimistic (tried eagerly).
func (m *flagModel) bestSlot() int {
	best, bestScore := -1, math.Inf(1)
	for i := range m.sum {
		if m.count[i] == 0 {
			return i // optimism under uncertainty
		}
		if mean := m.sum[i] / m.count[i]; mean < bestScore {
			best, bestScore = i, mean
		}
	}
	return best
}

// sampleInSlot draws a value from the slot's region of the domain.
func (s *Surrogate) sampleInSlot(ctx *Context, m *flagModel, slot int) flags.Value {
	switch m.flag.Type {
	case flags.Bool:
		return flags.BoolValue(slot == 1)
	case flags.Enum:
		return flags.EnumValue(slot)
	default:
		span := m.flag.Max - m.flag.Min
		n := int64(len(m.sum))
		lo := m.flag.Min + span*int64(slot)/n
		hi := m.flag.Min + span*int64(slot+1)/n
		if hi <= lo {
			hi = lo + 1
		}
		v := lo + ctx.Rng.Int63n(hi-lo+1)
		return m.flag.Clamp(flags.IntValue(v))
	}
}

// Propose implements Searcher.
func (s *Surrogate) Propose(ctx *Context) *flags.Config {
	if s.models == nil {
		s.init(ctx)
	}
	// Seed phase: a few random configurations to give the model data.
	if s.seeded < 10 {
		s.seeded++
		cfg := flags.NewConfig(ctx.Reg)
		// Light randomization: a handful of flags, so seeds mostly run.
		for i := 0; i < 8; i++ {
			flags.MutateFlag(cfg, s.ids[ctx.Rng.Intn(len(s.ids))], ctx.Rng)
		}
		s.note(cfg)
		return cfg
	}

	eps := surrogateEpsilon
	weights := s.groupWeights()
	for attempt := 0; attempt < 8; attempt++ {
		cfg := flags.NewConfig(ctx.Reg)
		// Only set flags the model has an opinion about (or explores);
		// untouched flags stay at their defaults, keeping proposals sane.
		for _, id := range s.ids {
			m := s.models[id]
			observed := 0.0
			for _, c := range m.count {
				observed += c
			}
			if observed == 0 {
				continue
			}
			// Hierarchy-aware exploration: scale the explore band by the
			// flag's subtree weight, so ε-exploration concentrates where
			// the model has seen scores actually move. The leave-default
			// band keeps its width, so regularization pressure is uniform.
			w := 1.0
			if weights != nil {
				if gw, ok := weights[s.groupOf[id]]; ok {
					w = gw
				}
			}
			r := ctx.Rng.Float64()
			explore := eps * 0.5 * w
			switch {
			case r < explore:
				// Explore: random slot.
				slot := ctx.Rng.Intn(len(m.sum))
				cfg.SetID(id, s.sampleInSlot(ctx, m, slot)) //nolint:errcheck
			case r < explore+eps*0.5:
				// Leave at default (regularization toward sanity).
			default:
				best := m.bestSlot()
				if best >= 0 {
					_ = cfg.SetID(id, s.sampleInSlot(ctx, m, best))
				}
			}
		}
		if hierarchy.Validate(cfg) == nil {
			if _, err := hierarchy.SelectedCollector(cfg); err == nil {
				s.note(cfg)
				return cfg
			}
		}
	}
	// Could not assemble a valid proposal; fall back to a best-config mutant.
	cfg := ctx.Best.Clone()
	flags.MutateFlag(cfg, s.ids[ctx.Rng.Intn(len(s.ids))], ctx.Rng)
	s.note(cfg)
	return cfg
}

// groupWeights derives a per-subtree exploration weight from the model's
// observed score spreads: for each flag the spread of its slot means, for
// each hierarchy subtree the maximum spread of its flags, normalized so the
// highest-impact subtree explores at 2× and flat subtrees at 0.5×. Returns
// nil (neutral weights everywhere) until some flag has two observed slots
// to compare — the GroupTuner insight, applied to ε instead of to a
// separate group-search phase.
func (s *Surrogate) groupWeights() map[string]float64 {
	spread := map[string]float64{}
	maxSpread := 0.0
	for _, id := range s.ids {
		m := s.models[id]
		lo, hi, seen := math.Inf(1), math.Inf(-1), 0
		for i := range m.sum {
			if m.count[i] == 0 {
				continue
			}
			mean := m.sum[i] / m.count[i]
			if mean < lo {
				lo = mean
			}
			if mean > hi {
				hi = mean
			}
			seen++
		}
		if seen < 2 {
			continue
		}
		g := s.groupOf[id]
		if d := hi - lo; d > spread[g] {
			spread[g] = d
			if d > maxSpread {
				maxSpread = d
			}
		}
	}
	if maxSpread <= 0 {
		return nil
	}
	out := make(map[string]float64, len(spread))
	for g, d := range spread {
		out[g] = 0.5 + 1.5*d/maxSpread
	}
	return out
}

func (s *Surrogate) note(cfg *flags.Config) {
	if s.pending == nil {
		s.pending = make(map[*flags.Config]bool)
	}
	s.pending[cfg] = true
}

// Observe implements Searcher: credit every explicit flag of the proposal
// with the (normalized) score.
func (s *Surrogate) Observe(ctx *Context, cfg *flags.Config, m runner.Measurement) {
	if !s.pending[cfg] || s.models == nil {
		return
	}
	delete(s.pending, cfg)
	sc := ctx.Score(m)
	if math.IsInf(sc, 1) {
		// Failures teach too: charge a large penalty to the slots used.
		sc = ctx.DefaultWall * 3
	}
	s.credit(cfg, sc/ctx.DefaultWall)
}

// credit adds norm to the slot of every explicit flag of cfg the model
// covers.
func (s *Surrogate) credit(cfg *flags.Config, norm float64) {
	for _, id := range cfg.ExplicitIDs() {
		if fm := s.models[id]; fm != nil {
			slot := fm.slotOf(cfg.GetID(id))
			fm.sum[slot] += norm
			fm.count[slot]++
		}
	}
}
