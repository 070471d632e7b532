package flags

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewCustomRegistry([]Flag{
		{Name: "B1", Type: Bool, Kind: Product, Default: BoolValue(false)},
		{Name: "B2", Type: Bool, Kind: Product, Default: BoolValue(true)},
		{Name: "I1", Type: Int, Kind: Product, Min: 0, Max: 100, Default: IntValue(10)},
		{Name: "E1", Type: Enum, Kind: Product, Choices: []string{"x", "y", "z"}, Default: EnumValue(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigDefaultsAndSet(t *testing.T) {
	r := testRegistry(t)
	c := NewConfig(r)
	if c.Bool("B1") || !c.Bool("B2") {
		t.Error("defaults not visible through Get")
	}
	if c.Int("I1") != 10 || c.Enum("E1") != "x" {
		t.Error("defaults not visible through typed getters")
	}
	if c.IsExplicit("B1") {
		t.Error("nothing should be explicit yet")
	}
	c.SetBool("B1", true)
	c.SetInt("I1", 55)
	c.SetEnum("E1", "z")
	if !c.Bool("B1") || c.Int("I1") != 55 || c.Enum("E1") != "z" {
		t.Error("explicit values not visible")
	}
	if !c.IsExplicit("B1") {
		t.Error("B1 should be explicit")
	}
	c.Unset("B1")
	if c.Bool("B1") {
		t.Error("Unset should revert to default")
	}
}

func TestConfigSetValidates(t *testing.T) {
	r := testRegistry(t)
	c := NewConfig(r)
	if err := c.Set("NoSuch", IntValue(1)); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := c.Set("I1", IntValue(1000)); err == nil {
		t.Error("out-of-domain value should fail")
	}
	if err := c.Set("I1", IntValue(100)); err != nil {
		t.Errorf("boundary value should pass: %v", err)
	}
}

func TestConfigSetIntClamps(t *testing.T) {
	r := testRegistry(t)
	c := NewConfig(r)
	c.SetInt("I1", 1<<40)
	if c.Int("I1") != 100 {
		t.Errorf("SetInt should clamp, got %d", c.Int("I1"))
	}
	c.SetInt("I1", -5)
	if c.Int("I1") != 0 {
		t.Errorf("SetInt should clamp low, got %d", c.Int("I1"))
	}
}

func TestConfigTypedPanics(t *testing.T) {
	r := testRegistry(t)
	c := NewConfig(r)
	mustPanic(t, "unknown name", func() { c.SetBool("Nope", true) })
	mustPanic(t, "type mismatch set", func() { c.SetBool("I1", true) })
	mustPanic(t, "type mismatch get", func() { c.Int("B1") })
	mustPanic(t, "bad enum choice", func() { c.SetEnum("E1", "nope") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestConfigCloneIndependence(t *testing.T) {
	r := testRegistry(t)
	a := NewConfig(r)
	a.SetInt("I1", 42)
	b := a.Clone()
	b.SetInt("I1", 7)
	b.SetBool("B1", true)
	if a.Int("I1") != 42 || a.Bool("B1") {
		t.Error("mutating the clone changed the original")
	}
	if b.Int("I1") != 7 {
		t.Error("clone lost its own mutation")
	}
}

func TestConfigKeyCanonical(t *testing.T) {
	r := testRegistry(t)
	a := NewConfig(r)
	b := NewConfig(r)
	// Same effective config reached differently must share a key.
	a.SetInt("I1", 42)
	a.SetBool("B1", true)
	b.SetBool("B1", true)
	b.SetInt("I1", 42)
	b.SetBool("B2", true) // explicit but equal to default: must not appear
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	if strings.Contains(a.Key(), "B2") {
		t.Error("default-valued assignment leaked into key")
	}
	empty := NewConfig(r)
	if empty.Key() != "" {
		t.Errorf("empty config key = %q", empty.Key())
	}
	if empty.String() != "<defaults>" {
		t.Errorf("empty config String = %q", empty.String())
	}
}

func TestConfigDiff(t *testing.T) {
	r := testRegistry(t)
	a := NewConfig(r)
	b := NewConfig(r)
	if d := a.Diff(b); len(d) != 0 {
		t.Errorf("identical configs diff = %v", d)
	}
	b.SetInt("I1", 99)
	b.SetBool("B2", false)
	d := a.Diff(b)
	if len(d) != 2 || d[0] != "B2" || d[1] != "I1" {
		t.Errorf("diff = %v, want [B2 I1]", d)
	}
	// Explicit-but-default is not a difference.
	b2 := NewConfig(r)
	b2.SetBool("B2", true)
	if d := a.Diff(b2); len(d) != 0 {
		t.Errorf("explicit default should not diff: %v", d)
	}
}

func TestConfigValidate(t *testing.T) {
	r := testRegistry(t)
	c := NewConfig(r)
	c.SetInt("I1", 50)
	if err := c.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Corrupt internals to simulate a stale config.
	c.putID(r.ID("I1"), IntValue(1<<40))
	if err := c.Validate(); err == nil {
		t.Error("corrupted config accepted")
	}
}

func TestExplicitNamesSorted(t *testing.T) {
	r := testRegistry(t)
	c := NewConfig(r)
	c.SetEnum("E1", "y")
	c.SetBool("B1", true)
	c.SetInt("I1", 3)
	got := c.ExplicitNames()
	want := []string{"B1", "E1", "I1"}
	if len(got) != len(want) {
		t.Fatalf("ExplicitNames = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExplicitNames = %v, want %v", got, want)
		}
	}
}

func TestDefaultConfigMatchesRegistry(t *testing.T) {
	r := NewRegistry()
	d := r.DefaultConfig()
	for _, n := range r.Names() {
		f := r.Lookup(n)
		v, ok := d.Get(n)
		if !ok || !v.Equal(f.Type, f.Default) {
			t.Errorf("DefaultConfig: %s = %v, want default", n, v)
		}
	}
	// Every flag is explicit, and nothing differs from its default: the
	// canonical form keeps only the explicit default that matters, and the
	// config still counts as the defaults.
	if got, want := d.Key(), "UseParallelGC=true"; got != want {
		t.Errorf("DefaultConfig key = %q, want %q", got, want)
	}
	if got, want := d.ExplicitArgs(), []string{"-XX:+UseParallelGC"}; !reflect.DeepEqual(got, want) {
		t.Errorf("DefaultConfig ExplicitArgs = %v, want %v", got, want)
	}
	if !d.AtDefaults() {
		t.Error("DefaultConfig is not AtDefaults")
	}
}

// TestAtDefaults: a config counts as the defaults while no assignment is
// off its default, even when an explicit default whose explicitness
// matters keeps its key non-empty.
func TestAtDefaults(t *testing.T) {
	r := NewRegistry()
	c := NewConfig(r)
	if !c.AtDefaults() {
		t.Error("empty config is not AtDefaults")
	}
	c.SetBool("UseParallelGC", true)
	c.SetInt("MaxHeapSize", 512<<20)
	if !c.AtDefaults() || c.Key() != "UseParallelGC=true" {
		t.Errorf("explicit defaults: AtDefaults %v, Key %q", c.AtDefaults(), c.Key())
	}
	c.SetBool("UseParallelGC", false)
	if c.AtDefaults() {
		t.Error("-XX:-UseParallelGC is AtDefaults")
	}
}

// TestExplicitStorageMatchesModel drives configs through random
// assignments, removals, resets and clones against a map of what was set:
// the explicit-only storage must read every flag back as the model says
// and keep its explicit IDs sorted, whether IDs arrive in order (as from
// the renderers and the crossover), cluster in one bitmap word, or land
// anywhere.
func TestExplicitStorageMatchesModel(t *testing.T) {
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(3))
	c := NewConfig(reg)
	model := map[ID]Value{}
	next := ID(0)
	for step := 0; step < 6000; step++ {
		var id ID
		switch rng.Intn(3) {
		case 0: // ascending, as parsing a rendered config does
			id = next % ID(reg.Len())
			next += ID(1 + rng.Intn(3))
		case 1: // clustered in a few bitmap words
			id = ID(60 + rng.Intn(140))
		default:
			id = ID(rng.Intn(reg.Len()))
		}
		switch op := rng.Intn(100); {
		case op < 60:
			v := SampleValue(reg.byID[id], rng)
			c.putID(id, v)
			model[id] = v
		case op < 95:
			c.UnsetID(id)
			delete(model, id)
		case op < 98:
			c = c.Clone()
		default:
			c.Reset()
			clear(model)
			next = 0
		}
		checkStorage(t, step, c, model)
	}
}

func checkStorage(t *testing.T, step int, c *Config, model map[ID]Value) {
	t.Helper()
	ids := c.ExplicitIDs()
	if len(ids) != len(model) {
		t.Fatalf("step %d: %d explicit IDs, model has %d", step, len(ids), len(model))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("step %d: explicit IDs not strictly ascending at %d: %v", step, i, ids)
		}
	}
	for id := ID(0); int(id) < c.reg.Len(); id++ {
		want, explicit := model[id]
		if !explicit {
			want = c.reg.byID[id].Default
		}
		if got := c.GetID(id); got != want || c.IsExplicitID(id) != explicit {
			t.Fatalf("step %d: flag %d reads %+v (explicit %v), model %+v (explicit %v)",
				step, id, got, c.IsExplicitID(id), want, explicit)
		}
	}
}

// TestDiffMatchesFullWalk: Diff merges the two explicit lists instead of
// walking the registry; it must name exactly the flags a full walk finds,
// explicit defaults and one-sided assignments included.
func TestDiffMatchesFullWalk(t *testing.T) {
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(5))
	random := func() *Config {
		c := NewConfig(reg)
		for i := rng.Intn(40); i > 0; i-- {
			id := ID(rng.Intn(reg.Len()))
			if f := reg.byID[id]; rng.Intn(3) == 0 {
				c.putID(id, f.Default)
			} else {
				c.putID(id, SampleValue(f, rng))
			}
		}
		return c
	}
	for trial := 0; trial < 500; trial++ {
		a, b := random(), random()
		if trial%5 == 0 {
			b = a.Clone()
			MutateFlag(b, ID(rng.Intn(reg.Len())), rng)
		}
		var want []string
		for id, f := range reg.byID {
			if !a.GetID(ID(id)).Equal(f.Type, b.GetID(ID(id))) {
				want = append(want, f.Name)
			}
		}
		if got := a.Diff(b); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("trial %d: Diff = %v, full walk %v", trial, got, want)
		}
	}
}

// TestSeekMatchesGetID: the crossover's cursor must read every flag as
// GetID does, whether asked in ascending order or not, including IDs the
// cursor stepped past exactly.
func TestSeekMatchesGetID(t *testing.T) {
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		c := NewConfig(reg)
		for i := rng.Intn(400); i > 0; i-- {
			id := ID(rng.Intn(reg.Len()))
			c.putID(id, SampleValue(reg.byID[id], rng))
		}
		cur, id := 0, ID(0)
		for k := 0; k < 400; k++ {
			if rng.Intn(4) == 0 {
				id = ID(rng.Intn(reg.Len()))
			} else {
				id = (id + ID(rng.Intn(5))) % ID(reg.Len())
			}
			from := cur
			if got, want := c.seek(&cur, id), c.GetID(id); got != want {
				t.Fatalf("trial %d: seek(%d) from cursor %d = %+v, GetID %+v", trial, id, from, got, want)
			}
		}
	}
}
