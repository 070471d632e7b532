package flags

import (
	"math/rand"
	"testing"
)

// Property: for ANY randomly assembled configuration, rendering to a
// java-style command line and parsing it back reproduces the exact
// effective configuration. This is the contract the subprocess runner and
// the persistence layer both rely on.
func TestCommandLineRoundTripProperty(t *testing.T) {
	reg := NewRegistry()
	names := reg.TunableNames()
	rng := rand.New(rand.NewSource(20260706))

	for trial := 0; trial < 500; trial++ {
		c := NewConfig(reg)
		// Assign a random handful of random flags.
		n := 1 + rng.Intn(12)
		for i := 0; i < n; i++ {
			name := names[rng.Intn(len(names))]
			c.put(name, SampleValue(reg.Lookup(name), rng))
		}
		args := c.ExplicitArgs()
		parsed, err := ParseArgs(reg, args)
		if err != nil {
			t.Fatalf("trial %d: cannot parse own rendering %v: %v", trial, args, err)
		}
		if parsed.Key() != c.Key() {
			t.Fatalf("trial %d: round trip changed the config\n  in:  %s\n  out: %s\n  args: %v",
				trial, c.Key(), parsed.Key(), args)
		}
	}
}

// Property: Clone + arbitrary mutations never affect the original, and
// Diff(original, mutated) names exactly the flags whose effective values
// changed.
func TestCloneMutateDiffProperty(t *testing.T) {
	reg := NewRegistry()
	names := reg.TunableNames()
	rng := rand.New(rand.NewSource(77))

	for trial := 0; trial < 300; trial++ {
		orig := NewConfig(reg)
		for i := 0; i < 5; i++ {
			name := names[rng.Intn(len(names))]
			orig.put(name, SampleValue(reg.Lookup(name), rng))
		}
		origKey := orig.Key()

		mut := orig.Clone()
		touched := map[string]bool{}
		for i := 0; i < 4; i++ {
			name := names[rng.Intn(len(names))]
			touched[name] = true
			MutateFlag(mut, reg.ID(name), rng)
		}
		if orig.Key() != origKey {
			t.Fatal("mutating the clone changed the original")
		}
		for _, d := range orig.Diff(mut) {
			if !touched[d] {
				t.Fatalf("diff names untouched flag %s", d)
			}
			f := reg.Lookup(d)
			a, _ := orig.Get(d)
			b, _ := mut.Get(d)
			if a.Equal(f.Type, b) {
				t.Fatalf("diff names flag %s with equal values", d)
			}
		}
	}
}

// Property: Key is injective over effective configurations — two configs
// with equal keys measure identically in the simulator's eyes (they render
// to the same command line).
func TestKeyDeterminesCommandLineProperty(t *testing.T) {
	reg := NewRegistry()
	names := reg.TunableNames()
	rng := rand.New(rand.NewSource(99))
	seen := map[string]string{} // key → rendered args

	for trial := 0; trial < 400; trial++ {
		c := NewConfig(reg)
		for i := 0; i < 3; i++ {
			name := names[rng.Intn(len(names))]
			c.put(name, SampleValue(reg.Lookup(name), rng))
		}
		key := c.Key()
		rendered := ""
		for _, a := range c.ExplicitArgs() {
			rendered += a + " "
		}
		if prev, ok := seen[key]; ok && prev != rendered {
			t.Fatalf("same key, different command lines:\n  %s\n  %s", prev, rendered)
		}
		seen[key] = rendered
	}
}
