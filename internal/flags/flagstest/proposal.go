// Package flagstest builds configurations shaped like the tuner's own
// proposals, for tests and benchmarks that must price production-width
// configs rather than a handful of hand-set flags.
package flagstest

import (
	"math/rand"

	"repro/internal/flags"
	"repro/internal/hierarchy"
)

// Proposal returns a config shaped like a hierarchical proposal: the
// Crossover of two mutated parents over the active flags of one branch
// combination of the standard tree, with the branch selection reapplied,
// as core.Hierarchical builds its children. Like every crossover child it
// holds only its canonical form: about a dozen explicit flags, about ten
// of them off their defaults. The same seed gives the same config.
func Proposal(reg *flags.Registry, seed int64) *flags.Config {
	a, b, active, apply, rng := Parents(reg, seed)
	child := flags.Crossover(a, b, active, rng)
	apply(child)
	return child
}

// WideProposal is Proposal in the wide form children had before Crossover
// stored only canonical assignments: every active flag of the branch
// combination is explicit (~350 on the standard registry), explicit
// defaults included. It has Proposal's Key.
func WideProposal(reg *flags.Registry, seed int64) *flags.Config {
	a, b, active, apply, rng := Parents(reg, seed)
	child := Widen(flags.Crossover(a, b, active, rng), active)
	apply(child)
	return child
}

// Parents returns what Proposal crosses: two mutated parents, the active
// flags of their branch combination, the function that reapplies the
// branch selection, and the random source positioned at the crossover's
// first draw.
func Parents(reg *flags.Registry, seed int64) (a, b *flags.Config, active []flags.ID, apply func(*flags.Config), rng *rand.Rand) {
	rng = rand.New(rand.NewSource(seed))
	tree := hierarchy.Build(reg)
	var branches []hierarchy.Branch
	for _, ch := range tree.Choices() {
		branches = append(branches, ch.Branches[rng.Intn(len(ch.Branches))])
	}
	apply = func(c *flags.Config) {
		for _, br := range branches {
			br.Apply(c)
		}
	}
	base := flags.NewConfig(reg)
	apply(base)
	active = tree.ActiveFlags(base)
	a, b = base.Clone(), base.Clone()
	for i := 0; i < 6; i++ {
		flags.MutateFlag(a, active[rng.Intn(len(active))], rng)
		flags.MutateFlag(b, active[rng.Intn(len(active))], rng)
	}
	return a, b, active, apply, rng
}

// Widen returns a copy of c in which every flag of ids is explicit at its
// effective value. Flags whose explicitness matters keep their state, so
// the copy has c's Key.
func Widen(c *flags.Config, ids []flags.ID) *flags.Config {
	w := c.Clone()
	reg := c.Registry()
	for _, id := range ids {
		if !w.IsExplicitID(id) && !reg.FlagByID(id).ExplicitMatters {
			if err := w.SetID(id, w.GetID(id)); err != nil {
				panic(err)
			}
		}
	}
	return w
}

// WideArgs renders every explicit assignment of c as a java-style
// argument, explicit defaults included. ExplicitArgs ships
// only the canonical form (about ten args for a Proposal); WideArgs of a
// WideProposal is the ~350-arg width older builds sent, which nodes still
// accept up to dispatch.MaxArgs. It parses back to c's Key.
func WideArgs(c *flags.Config) []string {
	var args []string
	c.EachExplicit(func(f *flags.Flag, v flags.Value) {
		switch {
		case f.Type != flags.Bool:
			args = append(args, "-XX:"+f.Name+"="+f.ValueString(v))
		case v.B:
			args = append(args, "-XX:+"+f.Name)
		default:
			args = append(args, "-XX:-"+f.Name)
		}
	})
	return args
}
