package flags

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleValueStaysInDomain(t *testing.T) {
	r := NewRegistry()
	rng := rand.New(rand.NewSource(7))
	for _, n := range r.Names() {
		f := r.Lookup(n)
		for i := 0; i < 50; i++ {
			v := SampleValue(f, rng)
			if err := f.Validate(v); err != nil {
				t.Fatalf("SampleValue(%s) out of domain: %v", n, err)
			}
		}
	}
}

func TestSampleValueLogScaleCoversOrders(t *testing.T) {
	r := NewRegistry()
	f := r.Lookup("CompileThreshold") // 100..100000, log scale
	rng := rand.New(rand.NewSource(3))
	low, high := 0, 0
	for i := 0; i < 2000; i++ {
		v := SampleValue(f, rng).I
		if v < 1000 {
			low++
		}
		if v > 10000 {
			high++
		}
	}
	// Log-uniform sampling gives each decade roughly one third of the mass.
	if low < 300 || high < 300 {
		t.Errorf("log sampling skewed: %d below 1e3, %d above 1e4 of 2000", low, high)
	}
}

func TestSampleValueZeroSentinel(t *testing.T) {
	r := NewRegistry()
	f := r.Lookup("NewSize") // Min 0, LogScale: must occasionally sample 0
	rng := rand.New(rand.NewSource(11))
	zeros := 0
	for i := 0; i < 2000; i++ {
		if SampleValue(f, rng).I == 0 {
			zeros++
		}
	}
	if zeros < 50 || zeros > 500 {
		t.Errorf("zero sentinel sampled %d/2000 times, want ~10%%", zeros)
	}
}

func TestNeighborValueMoves(t *testing.T) {
	r := NewRegistry()
	rng := rand.New(rand.NewSource(5))
	for _, n := range []string{"UseG1GC", "MaxHeapSize", "NewRatio", "CompileThreshold", "SurvivorRatio"} {
		f := r.Lookup(n)
		cur := f.Default
		for i := 0; i < 100; i++ {
			nv := NeighborValue(f, cur, rng)
			if err := f.Validate(nv); err != nil {
				t.Fatalf("NeighborValue(%s) invalid: %v", n, err)
			}
			if f.DomainSize() > 1 && nv.Equal(f.Type, cur) {
				t.Fatalf("NeighborValue(%s) did not move from %v", n, cur)
			}
			cur = nv
		}
	}
}

func TestNeighborValueBoolFlips(t *testing.T) {
	f := &Flag{Name: "B", Type: Bool}
	rng := rand.New(rand.NewSource(1))
	if v := NeighborValue(f, BoolValue(true), rng); v.B {
		t.Error("neighbor of true should be false")
	}
	if v := NeighborValue(f, BoolValue(false), rng); !v.B {
		t.Error("neighbor of false should be true")
	}
}

func TestNeighborValueDegenerateDomains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := &Flag{Name: "E", Type: Enum, Choices: []string{"only"}, Default: EnumValue(0)}
	if v := NeighborValue(e, EnumValue(0), rng); v != EnumValue(0) {
		t.Error("single-choice enum should stay put")
	}
	i := &Flag{Name: "I", Type: Int, Min: 5, Max: 5, Default: IntValue(5)}
	if v := NeighborValue(i, IntValue(5), rng); v.I != 5 {
		t.Error("degenerate int should stay put")
	}
}

func TestNeighborIntRespectsBoundsProperty(t *testing.T) {
	f := &Flag{Name: "I", Type: Int, Min: 0, Max: 1000, Step: 10}
	rng := rand.New(rand.NewSource(9))
	check := func(cur uint16) bool {
		c := snap(f, int64(cur)%1001)
		v := neighborInt(f, c, rng, 0.15)
		return v >= f.Min && v <= f.Max && v%10 == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRandomizeAndMutate(t *testing.T) {
	r := NewRegistry()
	rng := rand.New(rand.NewSource(42))
	c := NewConfig(r)
	names := []string{"MaxHeapSize", "NewRatio", "UseG1GC"}
	RandomizeFlags(c, idsOf(r, names...), rng)
	for _, n := range names {
		if !c.IsExplicit(n) {
			t.Errorf("%s not assigned by RandomizeFlags", n)
		}
	}
	if err := c.Validate(); err != nil {
		t.Errorf("randomized config invalid: %v", err)
	}
	before := c.Int("NewRatio")
	MutateFlag(c, r.ID("NewRatio"), rng)
	if c.Int("NewRatio") == before {
		t.Error("MutateFlag did not move NewRatio")
	}
	mustPanic(t, "randomize unknown", func() { RandomizeFlags(c, []ID{r.ID("Nope")}, rng) })
	mustPanic(t, "mutate unknown", func() { MutateFlag(c, r.ID("Nope"), rng) })
}

func TestCrossoverInheritsFromParents(t *testing.T) {
	r := NewRegistry()
	rng := rand.New(rand.NewSource(13))
	a := NewConfig(r)
	b := NewConfig(r)
	a.SetInt("NewRatio", 1)
	b.SetInt("NewRatio", 16)
	a.SetInt("SurvivorRatio", 2)
	b.SetInt("SurvivorRatio", 32)
	ids := idsOf(r, "NewRatio", "SurvivorRatio")
	sawA, sawB := false, false
	for i := 0; i < 100; i++ {
		child := Crossover(a, b, ids, rng)
		nr := child.Int("NewRatio")
		if nr != 1 && nr != 16 {
			t.Fatalf("child NewRatio %d from neither parent", nr)
		}
		if nr == 1 {
			sawA = true
		} else {
			sawB = true
		}
		if err := child.Validate(); err != nil {
			t.Fatalf("child invalid: %v", err)
		}
	}
	if !sawA || !sawB {
		t.Error("crossover never drew from one parent")
	}
}

func TestCrossoverDeterministicWithSeed(t *testing.T) {
	r := NewRegistry()
	a, b := NewConfig(r), NewConfig(r)
	a.SetInt("MaxHeapSize", 256<<20)
	b.SetInt("MaxHeapSize", 4<<30)
	ids := idsOf(r, "MaxHeapSize", "NewRatio", "UseG1GC", "CompileThreshold")
	c1 := Crossover(a, b, ids, rand.New(rand.NewSource(99)))
	c2 := Crossover(a, b, ids, rand.New(rand.NewSource(99)))
	if c1.Key() != c2.Key() {
		t.Error("crossover not deterministic under a fixed seed")
	}
}

// idsOf resolves names against r, in the order given.
func idsOf(r *Registry, names ...string) []ID {
	ids := make([]ID, len(names))
	for i, n := range names {
		ids[i] = r.ID(n)
	}
	return ids
}
