package flags_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/flags"
	"repro/internal/flags/flagstest"
	"repro/internal/hierarchy"
	"repro/internal/jvmsim"
	"repro/internal/workload"
)

// TestCanonicalFormKeepsWhatTheModelReads is the differential property
// behind shipping only the canonical form: every config c behaves exactly
// like ParseArgs(c.ExplicitArgs()) — the same Key, the same
// hierarchy.Validate verdict, and the same noiseless RunReps results on
// built-in and generated profiles — and Canonical builds that config
// without the round trip. Inputs are random assignments of every tunable,
// hierarchical proposals in their wide form (every active flag explicit),
// and the explicit defaults that could matter.
func TestCanonicalFormKeepsWhatTheModelReads(t *testing.T) {
	reg := flags.NewRegistry()
	sim := jvmsim.New()
	sim.NoiseRelStdDev = 0
	var profiles []*workload.Profile
	for _, name := range []string{"h2", "fop", "xalan"} {
		p, _ := workload.ByName(name)
		profiles = append(profiles, p)
	}
	for i, kind := range workload.GenKinds() {
		p, err := workload.Generate(kind, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}

	type input struct {
		name string
		cfg  *flags.Config
	}
	var inputs []input
	parse := func(args ...string) *flags.Config {
		c, err := flags.ParseArgs(reg, args)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	inputs = append(inputs,
		input{"g1+explicit-parallel", parse("-XX:+UseG1GC", "-XX:+UseParallelGC")},
		input{"explicit-parallel", parse("-XX:+UseParallelGC")},
	)
	// Experimental and diagnostic flags explicitly at their defaults: no
	// unlock prefix, no assignment, no effect.
	gated := flags.NewConfig(reg)
	for id := flags.ID(0); int(id) < reg.Len(); id++ {
		if f := reg.FlagByID(id); f.Kind == flags.Experimental || f.Kind == flags.Diagnostic {
			if err := gated.SetID(id, f.Default); err != nil {
				t.Fatal(err)
			}
		}
	}
	if args := gated.ExplicitArgs(); len(args) != 0 {
		t.Fatalf("gated flags at their defaults rendered %v", args)
	}
	inputs = append(inputs, input{"gated-defaults", gated})
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < 40; i++ {
		c := flags.NewConfig(reg)
		flags.RandomizeFlags(c, reg.TunableIDs(), rng)
		inputs = append(inputs, input{fmt.Sprintf("random-%d", i), c})
	}
	for i := 0; i < 40; i++ {
		inputs = append(inputs, input{fmt.Sprintf("proposal-%d", i), flagstest.WideProposal(reg, int64(i+1))})
	}

	for _, in := range inputs {
		c := in.cfg
		back, err := flags.ParseArgs(reg, c.ExplicitArgs())
		if err != nil {
			t.Fatalf("%s: cannot parse own rendering: %v", in.name, err)
		}
		if back.Key() != c.Key() {
			t.Fatalf("%s: key %q, round trip %q", in.name, c.Key(), back.Key())
		}
		if got, want := fmt.Sprint(hierarchy.Validate(back)), fmt.Sprint(hierarchy.Validate(c)); got != want {
			t.Fatalf("%s: Validate %s, round trip %s", in.name, want, got)
		}
		canon := c.Canonical()
		if !reflect.DeepEqual(canon.ExplicitNames(), back.ExplicitNames()) {
			t.Fatalf("%s: Canonical holds %v, the round trip %v", in.name, canon.ExplicitNames(), back.ExplicitNames())
		}
		for _, id := range back.ExplicitIDs() {
			if canon.GetID(id) != back.GetID(id) {
				t.Fatalf("%s: Canonical %s = %+v, round trip %+v", in.name, reg.FlagByID(id).Name, canon.GetID(id), back.GetID(id))
			}
		}
		for _, p := range profiles {
			want := sim.RunReps(c, p, 0, 2, nil)
			if got := sim.RunReps(back, p, 0, 2, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s: the round trip measures %+v, the config %+v", in.name, p.Name, got[0], want[0])
			}
			if got := sim.RunReps(canon, p, 0, 2, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %s: Canonical measures %+v, the config %+v", in.name, p.Name, got[0], want[0])
			}
		}
	}
}

// TestChargedFlagsDefaultOff: jvmsim charges an inert flag's overhead for
// every explicit assignment that switches it on (internal/jvmsim's
// EachExplicit charge), which the canonical form sees only if "on" is off
// the default. So every flag that charge can see — inert, with an
// overhead — must be a Bool defaulting to false; a catalog entry that
// breaks this would make the canonical form drop a charged assignment.
func TestChargedFlagsDefaultOff(t *testing.T) {
	reg := flags.NewRegistry()
	charged := 0
	for id := flags.ID(0); int(id) < reg.Len(); id++ {
		f := reg.FlagByID(id)
		if !f.Inert || f.OverheadPct <= 0 {
			continue
		}
		charged++
		if f.Type != flags.Bool || f.Default.B {
			t.Errorf("%s: charged by the simulator but a %v defaulting to %s", f.Name, f.Type, f.ValueString(f.Default))
		}
	}
	if charged == 0 {
		t.Fatal("no charged flags: the catalog or this test's predicate changed")
	}
	t.Logf("%d of %d flags are charged when switched on", charged, reg.Len())
}
