package core

import (
	"sort"

	"repro/internal/flags"
	"repro/internal/runner"
)

// FlagAttribution quantifies one flag's contribution to a winning
// configuration: how much slower the configuration gets when that single
// flag is reverted to its default.
type FlagAttribution struct {
	// Name is the flag; Value is the winning (non-default) setting.
	Name, Value string
	// DeltaPct is the relative slowdown from reverting the flag:
	// 100·(reverted − best)/best. Positive means the flag was pulling its
	// weight; near zero means it was a passenger; negative means the
	// winner would actually improve without it (noise artifacts and mild
	// interactions produce these).
	DeltaPct float64
	// Reverted reports whether the reverted configuration still ran;
	// false means removing the flag breaks the configuration outright
	// (e.g. reverting UseParNewGC=false under CMS).
	Reverted bool
}

// Attribute performs revert-one-flag analysis of a tuned configuration:
// for every flag the winner changed from its default, measure the
// configuration with just that flag restored. The cost is charged to the
// runner like any other measurement — attribution is an honest post-tuning
// experiment, not free introspection.
//
// Results are sorted by descending DeltaPct, so the first entries are the
// flags that actually won the session.
func Attribute(r runner.Runner, best *flags.Config, reps int) []FlagAttribution {
	if reps < 1 {
		reps = 3
	}
	base := r.Measure(best, reps)
	baseScore := Score(base)
	reg := best.Registry()
	changed := best.Diff(flags.NewConfig(reg))

	out := make([]FlagAttribution, 0, len(changed))
	for _, name := range changed {
		f := reg.Lookup(name)
		v, _ := best.Get(name)
		reverted := best.Clone()
		reverted.Unset(name)
		m := r.Measure(reverted, reps)
		fa := FlagAttribution{
			Name:     name,
			Value:    f.ValueString(v),
			Reverted: !m.Failed,
		}
		if !m.Failed && baseScore > 0 {
			fa.DeltaPct = 100 * (m.Mean - baseScore) / baseScore
		}
		out = append(out, fa)
	}
	sort.Slice(out, func(i, j int) bool {
		// Breaking flags (cannot revert) first — they are structurally
		// essential — then by descending contribution.
		if out[i].Reverted != out[j].Reverted {
			return !out[i].Reverted
		}
		if out[i].DeltaPct != out[j].DeltaPct {
			return out[i].DeltaPct > out[j].DeltaPct
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Minimize prunes a winning configuration down to the flags that earn
// their keep: passengers whose removal costs less than tolerancePct are
// reverted (least-contributing first, re-measuring after each removal so
// interaction effects are respected). The returned configuration performs
// within tolerancePct of the input; its measurements are charged to the
// runner.
//
// Tuned configurations accumulate noise-riding passengers — the paper's
// winners changed 10–25 flags, of which a handful matter. A minimal config
// is what one would actually deploy and document.
func Minimize(r runner.Runner, best *flags.Config, reps int, tolerancePct float64) *flags.Config {
	if reps < 1 {
		reps = 3
	}
	if tolerancePct <= 0 {
		tolerancePct = 1
	}
	attrs := Attribute(r, best, reps)
	current := best.Clone()
	budgetWall := Score(r.Measure(best, reps)) * (1 + tolerancePct/100)

	// Try removals least-contributing first.
	for i := len(attrs) - 1; i >= 0; i-- {
		a := attrs[i]
		if !a.Reverted {
			continue // structurally required
		}
		trial := current.Clone()
		trial.Unset(a.Name)
		m := r.Measure(trial, reps)
		if !m.Failed && Score(m) <= budgetWall {
			current = trial
		}
	}
	return current
}
