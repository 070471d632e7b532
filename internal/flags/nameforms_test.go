package flags_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/flags"
	"repro/internal/flags/flagstest"
	"repro/internal/hierarchy"
)

// The search operators once took flag names and resolved each through the
// registry's name map; they now take IDs end to end. The name forms below
// are the retired implementations, kept as references: the ID forms must
// be drop-in replacements that leave every config and every random draw
// where the name forms left them, or fixed-seed sessions would diverge.

func crossoverByName(a, b *flags.Config, names []string, rng *rand.Rand) *flags.Config {
	reg := a.Registry()
	child := flags.NewConfig(reg)
	for _, n := range names {
		src := a
		if rng.Intn(2) == 0 {
			src = b
		}
		id := reg.ID(n)
		mustSet(child, id, src.GetID(id))
	}
	return child
}

func mutateFlagByName(c *flags.Config, name string, rng *rand.Rand) {
	id := c.Registry().ID(name)
	mustSet(c, id, flags.NeighborValue(c.Registry().FlagByID(id), c.GetID(id), rng))
}

func randomizeFlagsByName(c *flags.Config, names []string, rng *rand.Rand) {
	for _, n := range names {
		id := c.Registry().ID(n)
		mustSet(c, id, flags.SampleValue(c.Registry().FlagByID(id), rng))
	}
}

// activeFlagsByName is the retired map-and-sort walk of the flag tree.
func activeFlagsByName(t *hierarchy.Tree, c *flags.Config) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(n *hierarchy.Node)
	walk = func(n *hierarchy.Node) {
		if n.Guard != nil && !n.Guard(c) {
			return
		}
		for _, name := range n.Flags {
			if seen[name] {
				continue
			}
			if f := t.Registry().Lookup(name); f != nil && f.Tunable() {
				seen[name] = true
				out = append(out, name)
			}
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(t.Root)
	sort.Strings(out)
	return out
}

func mustSet(c *flags.Config, id flags.ID, v flags.Value) {
	if err := c.SetID(id, v); err != nil {
		panic(err)
	}
}

func namesOf(reg *flags.Registry, ids []flags.ID) []string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = reg.FlagByID(id).Name
	}
	return names
}

// sameNextDraw fails unless both sources would produce the same next
// value: the ID form must consume exactly the draws the name form did.
func sameNextDraw(t *testing.T, what string, got, want *rand.Rand) {
	t.Helper()
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("%s: RNG out of step after the call (next draw %d, want %d)", what, g, w)
	}
}

func sameConfigs(t *testing.T, what string, got, want *flags.Config) {
	t.Helper()
	if g, w := got.Key(), want.Key(); g != w {
		t.Fatalf("%s: Key\n  got  %q\n  want %q", what, g, w)
	}
	if g, w := got.ExplicitArgs(), want.ExplicitArgs(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: ExplicitArgs\n  got  %q\n  want %q", what, g, w)
	}
}

// TestIDFormsMatchNameForms drives the ID forms of Crossover, MutateFlag,
// RandomizeFlags and Tree.ActiveFlags and their name-form references from
// identically seeded sources over production-width parents.
func TestIDFormsMatchNameForms(t *testing.T) {
	reg := flags.NewRegistry()
	tree := hierarchy.Build(reg)
	tunable := reg.TunableIDs()
	for seed := int64(1); seed <= 60; seed++ {
		a, b, active, _, _ := flagstest.Parents(reg, seed)
		names := namesOf(reg, active)
		if got := namesOf(reg, tree.ActiveFlags(a)); !reflect.DeepEqual(got, activeFlagsByName(tree, a)) {
			t.Fatalf("seed %d: ActiveFlags\n  got  %v\n  want %v", seed, got, activeFlagsByName(tree, a))
		}

		r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		child := flags.Crossover(a, b, active, r1)
		ref := crossoverByName(a, b, names, r2)
		sameConfigs(t, "Crossover", child, ref)
		sameNextDraw(t, "Crossover", r1, r2)

		// Any order and repeats: the parents' cursors must fall back to
		// lookups for IDs they have already passed.
		shuffled := append(append([]flags.ID(nil), active...), active[:len(active)/3]...)
		r1.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r2.Shuffle(len(shuffled), func(i, j int) {})
		sameConfigs(t, "Crossover in any order",
			flags.Crossover(a, b, shuffled, r1), crossoverByName(a, b, namesOf(reg, shuffled), r2))
		sameNextDraw(t, "Crossover in any order", r1, r2)

		for i := 0; i < 12; i++ {
			k := r1.Intn(len(active))
			r2.Intn(len(active))
			flags.MutateFlag(child, active[k], r1)
			mutateFlagByName(ref, names[k], r2)
			sameConfigs(t, "MutateFlag", child, ref)
			sameNextDraw(t, "MutateFlag", r1, r2)
		}
		// Mutations off the active set insert into the explicit list
		// rather than overwrite it.
		for i := 0; i < 12; i++ {
			k := r1.Intn(len(tunable))
			r2.Intn(len(tunable))
			flags.MutateFlag(child, tunable[k], r1)
			mutateFlagByName(ref, reg.FlagByID(tunable[k]).Name, r2)
			sameConfigs(t, "MutateFlag off the active set", child, ref)
			sameNextDraw(t, "MutateFlag off the active set", r1, r2)
		}

		fresh, freshRef := flags.NewConfig(reg), flags.NewConfig(reg)
		flags.RandomizeFlags(fresh, tunable, r1)
		randomizeFlagsByName(freshRef, reg.TunableNames(), r2)
		sameConfigs(t, "RandomizeFlags", fresh, freshRef)
		sameNextDraw(t, "RandomizeFlags", r1, r2)
		if got := namesOf(reg, tree.ActiveFlags(fresh)); !reflect.DeepEqual(got, activeFlagsByName(tree, fresh)) {
			t.Fatalf("seed %d: ActiveFlags of a random config\n  got  %v\n  want %v", seed, got, activeFlagsByName(tree, fresh))
		}
	}
}

// TestCrossoverStoresCanonicalForm: a crossover child holds exactly the
// canonical form of the name-form child, which stores every ID it is
// given: the same explicit IDs as its Canonical, the same Key, and the
// same next random draw, over production-width parents in ID order and
// shuffled with repeats. flagstest.WideProposal must rebuild the
// name-form child exactly.
func TestCrossoverStoresCanonicalForm(t *testing.T) {
	reg := flags.NewRegistry()
	for seed := int64(1); seed <= 60; seed++ {
		a, b, active, apply, wideRng := flagstest.Parents(reg, seed)
		repeats := append(append([]flags.ID(nil), active...), active...)
		rand.New(rand.NewSource(-seed)).Shuffle(len(repeats), func(i, j int) { repeats[i], repeats[j] = repeats[j], repeats[i] })
		for _, tc := range []struct {
			what string
			ids  []flags.ID
		}{{"in ID order", active}, {"shuffled, every ID twice", repeats}} {
			r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			child := flags.Crossover(a, b, tc.ids, r1)
			ref := crossoverByName(a, b, namesOf(reg, tc.ids), r2)
			what := fmt.Sprintf("seed %d, %s", seed, tc.what)
			if got, want := namesOf(reg, child.ExplicitIDs()), namesOf(reg, ref.Canonical().ExplicitIDs()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: explicit flags\n  got  %v\n  want %v", what, got, want)
			}
			sameConfigs(t, what, child, ref)
			sameNextDraw(t, what, r1, r2)
		}

		ref := crossoverByName(a, b, namesOf(reg, active), wideRng)
		apply(ref)
		wide := flagstest.WideProposal(reg, seed)
		if got, want := wide.ExplicitNames(), ref.ExplicitNames(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: WideProposal holds %v\n  the name-form child %v", seed, got, want)
		}
		sameConfigs(t, fmt.Sprintf("seed %d, WideProposal", seed), wide, ref)
	}

	// A repeated ID whose later draw lands on the default is unset, even
	// after an earlier draw set it off the default.
	id := reg.ID("NewRatio")
	a, b := flags.NewConfig(reg), flags.NewConfig(reg)
	mustSet(a, id, flags.IntValue(1))
	unset := 0
	for seed := int64(1); seed <= 32; seed++ {
		draws := rand.New(rand.NewSource(seed))
		first, last := draws.Intn(2), draws.Intn(2)
		child := flags.Crossover(a, b, []flags.ID{id, id}, rand.New(rand.NewSource(seed)))
		if got, want := child.IsExplicitID(id), last == 1; got != want {
			t.Fatalf("seed %d: draws %d then %d left NewRatio explicit=%v, want %v", seed, first, last, got, want)
		}
		if first == 1 && last == 0 {
			unset++
		}
	}
	if unset == 0 {
		t.Fatal("no seed drew the off-default parent and then the default one")
	}
}

// TestValueHasNoPointers holds the layout that keeps a Config's value
// storage out of the garbage collector's scan: no field of flags.Value
// may hold a pointer.
func TestValueHasNoPointers(t *testing.T) {
	typ := reflect.TypeOf(flags.Value{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("flags.Value.%s is a %s, which the garbage collector must scan", f.Name, f.Type)
		}
	}
	if size := typ.Size(); size > 16 {
		t.Errorf("flags.Value is %d bytes, want at most 16", size)
	}
}
