package transfer

import (
	"repro/internal/flags"
	"repro/internal/hierarchy"
)

// Prior is one warm-start candidate: a stored entry whose configuration was
// re-validated against the live flag registry and is ready to be proposed.
type Prior struct {
	// Entry is the store entry this prior came from.
	Entry *Entry
	// Distance is the fingerprint distance from the current workload.
	Distance float64
	// Config is the repaired configuration over the session's registry.
	Config *flags.Config
	// Dropped counts stored arguments the live registry no longer accepts
	// (renamed or removed flags across store generations).
	Dropped int
	// Norm is the entry's baseline-relative score (Score/BaselineScore),
	// the scale-free quality signal surrogate models pre-load.
	Norm float64
}

// RepairArgs re-parses a stored argument list against reg, keeping every
// argument the live registry still understands and counting the rest as
// dropped. Stored configs travel as rendered arguments precisely so this
// per-argument salvage is possible: interned flag IDs differ across
// registry generations, but "-XX:+UseG1GC" parses against any registry that
// still has the flag. The repaired config must still satisfy the hierarchy
// (exactly one collector selected, guards consistent); a config that lost a
// load-bearing argument fails validation and the caller discards it.
func RepairArgs(reg *flags.Registry, args []string) (cfg *flags.Config, dropped int, err error) {
	cfg = flags.NewConfig(reg)
	// Each argument parses into one recycled scratch config rather than a
	// fresh Config per argument, of which an entry can have a few hundred.
	one := reg.AcquireConfig()
	defer reg.ReleaseConfig(one)
	var arg [1]string
	for _, a := range args {
		arg[0] = a
		if flags.ParseArgsInto(one, arg[:]) != nil {
			dropped++
			continue
		}
		var serr error
		one.EachExplicit(func(f *flags.Flag, v flags.Value) {
			if e := cfg.Set(f.Name, v); e != nil && serr == nil {
				serr = e
			}
		})
		if serr != nil {
			dropped++
		}
	}
	if err := hierarchy.Validate(cfg); err != nil {
		return nil, dropped, err
	}
	if _, err := hierarchy.SelectedCollector(cfg); err != nil {
		return nil, dropped, err
	}
	return cfg, dropped, nil
}

// Priors queries the store for the k nearest fingerprint groups to fp and
// repairs their configurations against reg (see PriorsFrom).
func Priors(st *Store, reg *flags.Registry, fp Fingerprint, k int) []Prior {
	return PriorsFrom(reg, st.Nearest(fp, k))
}

// PriorsFrom repairs each ranked neighbour's configuration against reg,
// cut to its canonical form: entries from older builds also hold explicit
// defaults, and a searcher that credits every explicit assignment (the
// surrogate) must see the same prior whichever build stored the winner.
// Invalid or duplicate configurations (same canonical key after repair)
// are skipped, so the result injects each distinct surviving
// configuration exactly once, in the neighbours' order. A config that
// repair reduced to the registry defaults (flags.Config.AtDefaults: no
// assignment off its default, even if an explicit default keeps its key
// non-empty) is skipped too: the session measures the baseline
// regardless, so it carries no information.
func PriorsFrom(reg *flags.Registry, neighbors []Neighbor) []Prior {
	var out []Prior
	seen := make(map[string]bool)
	for _, nb := range neighbors {
		cfg, dropped, err := RepairArgs(reg, nb.Entry.Args)
		if err != nil {
			continue
		}
		cfg = cfg.Canonical()
		key := cfg.Key()
		if cfg.AtDefaults() || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Prior{
			Entry:    nb.Entry,
			Distance: nb.Distance,
			Config:   cfg,
			Dropped:  dropped,
			Norm:     nb.Entry.relScore(),
		})
	}
	return out
}
