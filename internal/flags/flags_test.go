package flags

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestTypeKindUnitStrings(t *testing.T) {
	if Bool.String() != "bool" || Int.String() != "int" || Enum.String() != "enum" {
		t.Error("Type.String mismatch")
	}
	if Type(99).String() != "Type(99)" {
		t.Error("unknown Type.String mismatch")
	}
	if Product.String() != "product" || Experimental.String() != "experimental" ||
		Diagnostic.String() != "diagnostic" || Develop.String() != "develop" {
		t.Error("Kind.String mismatch")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown Kind.String mismatch")
	}
}

func TestValueConstructorsAndEqual(t *testing.T) {
	if !BoolValue(true).Equal(Bool, BoolValue(true)) {
		t.Error("bool equality")
	}
	if BoolValue(true).Equal(Bool, BoolValue(false)) {
		t.Error("bool inequality")
	}
	if !IntValue(7).Equal(Int, IntValue(7)) || IntValue(7).Equal(Int, IntValue(8)) {
		t.Error("int equality")
	}
	if !EnumValue(0).Equal(Enum, EnumValue(0)) || EnumValue(0).Equal(Enum, EnumValue(1)) {
		t.Error("enum equality")
	}
	if IntValue(1).Equal(Type(99), IntValue(1)) {
		t.Error("unknown type should never compare equal")
	}
}

func TestValueString(t *testing.T) {
	b, i := &Flag{Type: Bool}, &Flag{Type: Int}
	if b.ValueString(BoolValue(true)) != "true" || b.ValueString(BoolValue(false)) != "false" {
		t.Error("bool render")
	}
	if i.ValueString(IntValue(-3)) != "-3" {
		t.Error("int render")
	}
	e := &Flag{Type: Enum, Choices: []string{"cms", "g1"}}
	if e.ValueString(EnumValue(1)) != "g1" {
		t.Error("enum render")
	}
	if e.ValueString(EnumValue(2)) != "?" || (&Flag{Type: Type(99)}).ValueString(IntValue(1)) != "?" {
		t.Error("out-of-range choice and unknown type render as ?")
	}
}

func TestChoiceValue(t *testing.T) {
	e := &Flag{Name: "E", Type: Enum, Choices: []string{"a", "b"}}
	if v, err := e.ChoiceValue("b"); err != nil || v != EnumValue(1) {
		t.Errorf("ChoiceValue(b) = %+v, %v", v, err)
	}
	// tuned returns this text in 400 bodies: it must not change.
	_, err := e.ChoiceValue("c")
	if want := `flags: E="c" not in [a b]`; err == nil || err.Error() != want {
		t.Errorf("ChoiceValue(c) error %v, want %q", err, want)
	}
}

func TestFlagValidate(t *testing.T) {
	f := Flag{Name: "X", Type: Int, Min: 10, Max: 20}
	if err := f.Validate(IntValue(10)); err != nil {
		t.Errorf("min should validate: %v", err)
	}
	if err := f.Validate(IntValue(20)); err != nil {
		t.Errorf("max should validate: %v", err)
	}
	if err := f.Validate(IntValue(9)); err == nil {
		t.Error("below min should fail")
	}
	if err := f.Validate(IntValue(21)); err == nil {
		t.Error("above max should fail")
	}
	e := Flag{Name: "E", Type: Enum, Choices: []string{"a", "b"}}
	if err := e.Validate(EnumValue(1)); err != nil {
		t.Errorf("valid choice rejected: %v", err)
	}
	if err := e.Validate(EnumValue(2)); err == nil {
		t.Error("invalid choice accepted")
	}
	if err := e.Validate(EnumValue(-1)); err == nil {
		t.Error("negative choice accepted")
	}
	b := Flag{Name: "B", Type: Bool}
	if err := b.Validate(BoolValue(true)); err != nil {
		t.Errorf("bool always valid: %v", err)
	}
}

func TestFlagClamp(t *testing.T) {
	f := Flag{Name: "X", Type: Int, Min: 10, Max: 20}
	if got := f.Clamp(IntValue(5)); got.I != 10 {
		t.Errorf("clamp low = %d", got.I)
	}
	if got := f.Clamp(IntValue(25)); got.I != 20 {
		t.Errorf("clamp high = %d", got.I)
	}
	if got := f.Clamp(IntValue(15)); got.I != 15 {
		t.Errorf("clamp inside = %d", got.I)
	}
	e := Flag{Name: "E", Type: Enum, Choices: []string{"a", "b"}, Default: EnumValue(1)}
	if got := e.Clamp(EnumValue(7)); got != EnumValue(1) {
		t.Errorf("enum clamp = %+v", got)
	}
}

func TestDomainSize(t *testing.T) {
	b := Flag{Type: Bool}
	if b.DomainSize() != 2 {
		t.Error("bool domain should be 2")
	}
	i := Flag{Type: Int, Min: 0, Max: 100, Step: 10}
	if i.DomainSize() != 11 {
		t.Errorf("int domain = %d, want 11", i.DomainSize())
	}
	i2 := Flag{Type: Int, Min: 5, Max: 5}
	if i2.DomainSize() != 1 {
		t.Errorf("degenerate int domain = %d, want 1", i2.DomainSize())
	}
	e := Flag{Type: Enum, Choices: []string{"a", "b", "c"}}
	if e.DomainSize() != 3 {
		t.Error("enum domain should be 3")
	}
}

func TestTunable(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		want bool
	}{{Product, true}, {Experimental, true}, {Diagnostic, false}, {Develop, false}} {
		f := Flag{Kind: c.kind}
		if f.Tunable() != c.want {
			t.Errorf("Tunable(%v) = %v, want %v", c.kind, f.Tunable(), c.want)
		}
	}
}

func TestNewRegistryCatalogShape(t *testing.T) {
	r := NewRegistry()
	if r.Len() < 600 {
		t.Errorf("registry has %d flags, paper requires 600+", r.Len())
	}
	// Spot-check flags the simulator depends on.
	for _, name := range []string{
		"UseSerialGC", "UseParallelGC", "UseConcMarkSweepGC", "UseG1GC",
		"MaxHeapSize", "NewRatio", "SurvivorRatio", "MaxTenuringThreshold",
		"TieredCompilation", "CompileThreshold", "ReservedCodeCacheSize",
		"MaxInlineSize", "UseBiasedLocking", "UseCompressedOops",
		"ParallelGCThreads",
	} {
		if r.Lookup(name) == nil {
			t.Errorf("registry missing modeled flag %s", name)
		}
	}
	if r.Lookup("NoSuchFlagEver") != nil {
		t.Error("Lookup of unknown flag should be nil")
	}
	// Defaults must mirror JDK-7 server ergonomics.
	d := r.DefaultConfig()
	if !d.Bool("UseParallelGC") {
		t.Error("default collector should be ParallelGC")
	}
	if d.Bool("TieredCompilation") {
		t.Error("tiered compilation should default off (JDK 7 server)")
	}
	if d.Int("CompileThreshold") != 10000 {
		t.Error("CompileThreshold default should be 10000")
	}
}

func TestRegistryDeterministicOrder(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	na, nb := a.Names(), b.Names()
	if len(na) != len(nb) {
		t.Fatal("registries differ in size")
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("order differs at %d: %s vs %s", i, na[i], nb[i])
		}
		if i > 0 && na[i-1] >= na[i] {
			t.Fatalf("names not strictly sorted at %d: %s >= %s", i, na[i-1], na[i])
		}
	}
}

func TestRegistryByCategoryAndTunable(t *testing.T) {
	r := NewRegistry()
	gc := r.ByCategory(CatGC)
	if len(gc) == 0 {
		t.Fatal("no GC flags")
	}
	for _, n := range gc {
		if r.Lookup(n).Category != CatGC {
			t.Errorf("%s not in gc category", n)
		}
	}
	tun := r.TunableNames()
	if len(tun) < 200 {
		t.Errorf("only %d tunable flags; whole-JVM tuning needs a wide space", len(tun))
	}
	for _, n := range tun {
		if !r.Lookup(n).Tunable() {
			t.Errorf("%s listed tunable but is not", n)
		}
	}
}

func TestNewCustomRegistryRejectsBadDefs(t *testing.T) {
	cases := []struct {
		name string
		defs []Flag
	}{
		{"empty name", []Flag{{Name: ""}}},
		{"duplicate", []Flag{{Name: "A", Type: Bool}, {Name: "A", Type: Bool}}},
		{"min>max", []Flag{{Name: "A", Type: Int, Min: 5, Max: 1, Default: IntValue(5)}}},
		{"enum no choices", []Flag{{Name: "A", Type: Enum}}},
		{"default out of domain", []Flag{{Name: "A", Type: Int, Min: 1, Max: 3, Default: IntValue(9)}}},
	}
	for _, c := range cases {
		if _, err := NewCustomRegistry(c.defs); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestStandardCatalogDefaultsValid(t *testing.T) {
	r := NewRegistry()
	for _, n := range r.Names() {
		f := r.Lookup(n)
		if err := f.Validate(f.Default); err != nil {
			t.Errorf("default of %s invalid: %v", n, err)
		}
		if f.Type == Int && f.Step < 0 {
			t.Errorf("%s has negative step", n)
		}
	}
}

func TestInertOverheadByConvention(t *testing.T) {
	r := NewRegistry()
	verify := r.Lookup("VerifyBeforeGC")
	if verify == nil || verify.OverheadPct < 0.05 {
		t.Error("VerifyBeforeGC should be expensive to engage")
	}
	pr := r.Lookup("PrintGCDetails")
	if pr == nil || pr.OverheadPct <= 0 || pr.OverheadPct > 0.01 {
		t.Error("PrintGCDetails should have a small positive overhead")
	}
	if !pr.Inert || !pr.Tunable() {
		t.Error("PrintGCDetails should be inert but tunable")
	}
}

func TestOverheadFor(t *testing.T) {
	cases := []struct {
		name string
		want float64
	}{
		{"VerifyX", 0.08}, {"ProfileX", 0.03}, {"CheckX", 0.02},
		{"TraceX", 0.015}, {"LogX", 0.01}, {"PrintX", 0.004}, {"UseX", 0},
	}
	for _, c := range cases {
		if got := overheadFor(c.name); got != c.want {
			t.Errorf("overheadFor(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCatalogHasNoPrefixSurprises(t *testing.T) {
	// Modeled (non-inert) flags must not accidentally carry overhead
	// semantics via naming; the families are inert-only.
	r := NewRegistry()
	for _, n := range r.Names() {
		f := r.Lookup(n)
		if !f.Inert && f.OverheadPct != 0 {
			t.Errorf("modeled flag %s has OverheadPct set", n)
		}
		if f.Inert && f.Type == Bool && f.Default.B {
			t.Errorf("inert bool %s defaults to true; engagement accounting assumes false", n)
		}
	}
}

func TestRegistryNamesPrefixFamiliesPresent(t *testing.T) {
	r := NewRegistry()
	count := 0
	for _, n := range r.Names() {
		if strings.HasPrefix(n, "Trace") || strings.HasPrefix(n, "Verify") {
			count++
		}
	}
	if count < 100 {
		t.Errorf("expected a wide develop-flag tail, found %d Trace/Verify flags", count)
	}
}

// TestMustResolvePanicsOnBadNames: hard-coded names are resolved once, so
// a misspelled or mistyped one must fail loudly at resolution rather than
// read the wrong flag later.
func TestMustResolvePanicsOnBadNames(t *testing.T) {
	r := NewRegistry()
	if id := r.MustBool("UseG1GC"); ID(id) != r.ID("UseG1GC") {
		t.Errorf("MustBool(UseG1GC) = %d, want %d", id, r.ID("UseG1GC"))
	}
	if id := r.MustInt("MaxHeapSize"); ID(id) != r.ID("MaxHeapSize") {
		t.Errorf("MustInt(MaxHeapSize) = %d, want %d", id, r.ID("MaxHeapSize"))
	}
	for _, c := range []struct {
		what, want string
		fn         func()
	}{
		{"misspelled bool", "unknown flag UseG1Gc", func() { r.MustBool("UseG1Gc") }},
		{"misspelled int", "unknown flag MaxHeapSise", func() { r.MustInt("MaxHeapSise") }},
		{"int read as bool", "MaxHeapSize is int, not bool", func() { r.MustBool("MaxHeapSize") }},
		{"bool read as int", "UseG1GC is bool, not int", func() { r.MustInt("UseG1GC") }},
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), c.want) {
					t.Errorf("%s: panic %v, want one naming %q", c.what, p, c.want)
				}
			}()
			c.fn()
		}()
	}
}

// TestNewRegistryIsShared: every call returns the one standard instance,
// so configurations from any two callers can be crossed and diffed.
func TestNewRegistryIsShared(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	if a != b {
		t.Fatal("NewRegistry returned two instances")
	}
	Crossover(NewConfig(a), NewConfig(b), a.TunableIDs(), rand.New(rand.NewSource(1)))
}

// TestNewCustomRegistryRejectsRepeatedChoices: an enum value is a choice
// index rendered through Choices, so two equal names would key and render
// two different values identically.
func TestNewCustomRegistryRejectsRepeatedChoices(t *testing.T) {
	_, err := NewCustomRegistry([]Flag{{Name: "E", Type: Enum, Choices: []string{"a", "b", "a"}}})
	if err == nil || !strings.Contains(err.Error(), `repeats choice "a"`) {
		t.Fatalf("repeated choice accepted or misreported: %v", err)
	}
}
