package core

import (
	"math"
	"sort"

	"repro/internal/flags"
	"repro/internal/runner"
)

// ---------------------------------------------------------------------------
// Flat random search: draw every tunable flag uniformly. This is the
// strawman that demonstrates why the paper needs structure — most draws
// conflict, crash, or engage expensive observability flags.
// ---------------------------------------------------------------------------

// Random is uniform sampling over the full flat space.
type Random struct{}

// Name implements Searcher.
func (Random) Name() string { return "random" }

// Propose implements Searcher.
func (Random) Propose(ctx *Context) *flags.Config {
	cfg := flags.NewConfig(ctx.Reg)
	flags.RandomizeFlags(cfg, ctx.Reg.TunableIDs(), ctx.Rng)
	return cfg
}

// ProposeBatch implements BatchSearcher: independent draws parallelize
// trivially.
func (r Random) ProposeBatch(ctx *Context, n int) []*flags.Config {
	out := make([]*flags.Config, n)
	for i := range out {
		out[i] = r.Propose(ctx)
	}
	return out
}

// Observe implements Searcher.
func (Random) Observe(*Context, *flags.Config, runner.Measurement) {}

// ---------------------------------------------------------------------------
// Hill climbing: mutate a couple of flags at a time, keep improvements,
// restart on stagnation.
// ---------------------------------------------------------------------------

// HillClimb is first-improvement local search from the default config.
// After hillRestartAfter non-improving observations in a row it restarts
// from the best known configuration with a kick.
type HillClimb struct {
	// Flags restricts the search to the named flags; empty means every
	// tunable flag. (The Subset searcher is a HillClimb with Flags set.)
	Flags []string

	flagIDs     []flags.ID // Flags, resolved on first use
	current     *flags.Config
	currentWall float64
	stagnant    int
	pending     map[*flags.Config]bool
}

// Name implements Searcher.
func (h *HillClimb) Name() string {
	if len(h.Flags) > 0 {
		return "subset-hillclimb"
	}
	return "hillclimb"
}

func (h *HillClimb) pool(ctx *Context) []flags.ID {
	if len(h.Flags) == 0 {
		return ctx.Reg.TunableIDs()
	}
	if h.flagIDs == nil {
		for _, n := range h.Flags {
			id := ctx.Reg.ID(n)
			if id == flags.NoID {
				panic("core: HillClimb flag " + n + " is not in the registry")
			}
			h.flagIDs = append(h.flagIDs, id)
		}
	}
	return h.flagIDs
}

// Propose implements Searcher.
func (h *HillClimb) Propose(ctx *Context) *flags.Config {
	if h.current == nil {
		h.current = flags.NewConfig(ctx.Reg)
		h.currentWall = ctx.DefaultWall
	}
	if h.stagnant >= hillRestartAfter {
		// Kick: restart from the global best with a random double-mutation.
		h.current = ctx.Best.Clone()
		h.currentWall = ctx.BestWall
		h.stagnant = 0
		pool := h.pool(ctx)
		for i := 0; i < 2; i++ {
			flags.MutateFlag(h.current, pool[ctx.Rng.Intn(len(pool))], ctx.Rng)
		}
	}
	next := h.current.Clone()
	pool := h.pool(ctx)
	n := 1 + ctx.Rng.Intn(2)
	for i := 0; i < n; i++ {
		flags.MutateFlag(next, pool[ctx.Rng.Intn(len(pool))], ctx.Rng)
	}
	if h.pending == nil {
		h.pending = make(map[*flags.Config]bool)
	}
	h.pending[next] = true
	return next
}

// Observe implements Searcher. Observations may arrive for any outstanding
// proposal (multi-worker sessions deliver out of proposal order); each is
// judged against the climber's current position.
func (h *HillClimb) Observe(ctx *Context, cfg *flags.Config, m runner.Measurement) {
	if !h.pending[cfg] {
		return
	}
	delete(h.pending, cfg)
	if sc := ctx.Score(m); sc < h.currentWall {
		h.current, h.currentWall = cfg, sc
		h.stagnant = 0
	} else {
		h.stagnant++
	}
}

// hillRestartAfter is HillClimb's stagnation limit.
const hillRestartAfter = 30

// NewSubset returns the prior-work proxy: hill climbing restricted to the
// half-dozen heap/GC flags earlier JVM-tuning papers considered. Its
// contrast with whole-JVM tuning is the paper's Figure 2.
func NewSubset() *HillClimb {
	return &HillClimb{Flags: SubsetFlags()}
}

// SubsetFlags is the fixed flag subset the prior-work baseline may touch.
func SubsetFlags() []string {
	return []string{
		"MaxHeapSize", "InitialHeapSize", "NewRatio",
		"SurvivorRatio", "MaxTenuringThreshold", "ParallelGCThreads",
	}
}

// ---------------------------------------------------------------------------
// Simulated annealing: accept uphill moves with temperature-scheduled
// probability; the schedule follows the consumed budget so it anneals over
// tuning time, not trial count.
// ---------------------------------------------------------------------------

// Anneal is simulated annealing over the flat space. Its temperature
// falls geometrically from annealStartTemp to annealEndTemp times the
// baseline wall time as the budget is consumed.
type Anneal struct {
	current     *flags.Config
	currentWall float64
	pending     map[*flags.Config]bool
}

// The annealing schedule's ends, relative to the baseline wall time.
const (
	annealStartTemp = 0.02
	annealEndTemp   = 0.001
)

// Name implements Searcher.
func (a *Anneal) Name() string { return "anneal" }

// Propose implements Searcher.
func (a *Anneal) Propose(ctx *Context) *flags.Config {
	if a.current == nil {
		a.current = flags.NewConfig(ctx.Reg)
		a.currentWall = ctx.DefaultWall
	}
	next := a.current.Clone()
	pool := ctx.Reg.TunableIDs()
	n := 1 + ctx.Rng.Intn(3)
	for i := 0; i < n; i++ {
		flags.MutateFlag(next, pool[ctx.Rng.Intn(len(pool))], ctx.Rng)
	}
	if a.pending == nil {
		a.pending = make(map[*flags.Config]bool)
	}
	a.pending[next] = true
	return next
}

// Observe implements Searcher.
func (a *Anneal) Observe(ctx *Context, cfg *flags.Config, m runner.Measurement) {
	if !a.pending[cfg] {
		return
	}
	delete(a.pending, cfg)
	sc := ctx.Score(m)
	if sc < a.currentWall {
		a.current, a.currentWall = cfg, sc
		return
	}
	if math.IsInf(sc, 1) {
		return // never walk into a crash
	}
	frac := clamp01(ctx.Elapsed / ctx.Budget)
	temp := annealStartTemp * math.Pow(annealEndTemp/annealStartTemp, frac) * ctx.DefaultWall
	if temp > 0 && ctx.Rng.Float64() < math.Exp(-(sc-a.currentWall)/temp) {
		a.current, a.currentWall = cfg, sc
	}
}

// ---------------------------------------------------------------------------
// Flat genetic algorithm: a steady-state GA whose genome is every tunable
// flag, with no knowledge of the hierarchy. The ablation partner of the
// hierarchical searcher (Figure 3).
// ---------------------------------------------------------------------------

// GeneticFlat is a steady-state GA over the flat space, with a population
// of geneticPopSize.
type GeneticFlat struct {
	pop     []individual
	pending map[*flags.Config]bool
}

type individual struct {
	cfg  *flags.Config
	wall float64
}

// Name implements Searcher.
func (g *GeneticFlat) Name() string { return "genetic-flat" }

const geneticPopSize = 16

// Propose implements Searcher.
func (g *GeneticFlat) Propose(ctx *Context) *flags.Config {
	pool := ctx.Reg.TunableIDs()
	// Seed the population with the default and light mutants of it.
	if len(g.pop) < geneticPopSize {
		cfg := flags.NewConfig(ctx.Reg)
		for i := 0; i < len(g.pop); i++ { // 0 mutations for the first
			flags.MutateFlag(cfg, pool[ctx.Rng.Intn(len(pool))], ctx.Rng)
		}
		g.note(cfg)
		return cfg
	}
	// Tournament-select two parents, crossover, mutate.
	p1 := g.tournament(ctx)
	p2 := g.tournament(ctx)
	child := flags.Crossover(p1.cfg, p2.cfg, pool, ctx.Rng)
	n := 1 + ctx.Rng.Intn(3)
	for i := 0; i < n; i++ {
		flags.MutateFlag(child, pool[ctx.Rng.Intn(len(pool))], ctx.Rng)
	}
	g.note(child)
	return child
}

func (g *GeneticFlat) note(cfg *flags.Config) {
	if g.pending == nil {
		g.pending = make(map[*flags.Config]bool)
	}
	g.pending[cfg] = true
}

func (g *GeneticFlat) tournament(ctx *Context) individual {
	best := g.pop[ctx.Rng.Intn(len(g.pop))]
	for i := 0; i < 2; i++ {
		c := g.pop[ctx.Rng.Intn(len(g.pop))]
		if c.wall < best.wall {
			best = c
		}
	}
	return best
}

// Observe implements Searcher.
func (g *GeneticFlat) Observe(ctx *Context, cfg *flags.Config, m runner.Measurement) {
	if !g.pending[cfg] {
		return
	}
	delete(g.pending, cfg)
	ind := individual{cfg: cfg, wall: ctx.Score(m)}
	if len(g.pop) < geneticPopSize {
		g.pop = append(g.pop, ind)
	} else if worst := g.worstIndex(); ind.wall < g.pop[worst].wall {
		g.pop[worst] = ind
	}
	sort.Slice(g.pop, func(i, j int) bool { return g.pop[i].wall < g.pop[j].wall })
}

func (g *GeneticFlat) worstIndex() int {
	w := 0
	for i := range g.pop {
		if g.pop[i].wall >= g.pop[w].wall {
			w = i
		}
	}
	return w
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
