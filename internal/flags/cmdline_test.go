package flags

import (
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestCommandLineRendering(t *testing.T) {
	r := NewRegistry()
	c := NewConfig(r)
	c.SetBool("UseG1GC", true)
	c.SetBool("UseParallelGC", false)
	c.SetInt("MaxHeapSize", 1<<30)
	c.SetInt("CompileThreshold", 1500)
	got := c.ExplicitArgs()
	want := []string{
		"-XX:CompileThreshold=1500",
		"-XX:MaxHeapSize=1g",
		"-XX:+UseG1GC",
		"-XX:-UseParallelGC",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExplicitArgs = %v, want %v", got, want)
	}
}

// TestCommandLineOmitsDefaults: an explicit assignment equal to its
// default is left out unless its flag's explicitness matters; an explicit
// -XX:+UseParallelGC is the one the standard catalog keeps.
func TestCommandLineOmitsDefaults(t *testing.T) {
	r := NewRegistry()
	c := NewConfig(r)
	c.SetBool("UseG1GC", false)          // explicit, equal to default
	c.SetBool("UseCompressedOops", true) // explicit, equal to default
	c.SetInt("MaxHeapSize", 512<<20)     // explicit, equal to default
	if got := c.ExplicitArgs(); len(got) != 0 {
		t.Errorf("default-valued assignment rendered: %v", got)
	}
	c.SetBool("UseParallelGC", true) // explicit, equal to default, and it matters
	if got, want := c.ExplicitArgs(), []string{"-XX:+UseParallelGC"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ExplicitArgs = %v, want %v", got, want)
	}
}

func TestCommandLineByteSuffixes(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		bytes int64
		want  string
	}{
		{1 << 30, "-XX:MaxHeapSize=1g"},
		{768 << 20, "-XX:MaxHeapSize=768m"},
		{2 << 30, "-XX:MaxHeapSize=2g"},
	}
	for _, cse := range cases {
		c := NewConfig(r)
		c.SetInt("MaxHeapSize", cse.bytes)
		got := c.ExplicitArgs()
		if len(got) != 1 || got[0] != cse.want {
			t.Errorf("MaxHeapSize=%d rendered %v, want %s", cse.bytes, got, cse.want)
		}
	}
}

func TestCommandLineUnlockPrefixes(t *testing.T) {
	r, err := NewCustomRegistry([]Flag{
		{Name: "Exp", Type: Bool, Kind: Experimental, Default: BoolValue(false)},
		{Name: "Diag", Type: Bool, Kind: Diagnostic, Default: BoolValue(false)},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConfig(r)
	c.SetBool("Exp", true)
	c.SetBool("Diag", true)
	got := c.ExplicitArgs()
	want := []string{
		"-XX:+UnlockExperimentalVMOptions",
		"-XX:+UnlockDiagnosticVMOptions",
		"-XX:+Diag",
		"-XX:+Exp",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExplicitArgs = %v, want %v", got, want)
	}
}

func TestParseArgsBooleans(t *testing.T) {
	r := NewRegistry()
	c, err := ParseArgs(r, []string{"-XX:+UseG1GC", "-XX:-UseParallelGC"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Bool("UseG1GC") || c.Bool("UseParallelGC") {
		t.Error("boolean parse mismatch")
	}
}

func TestParseArgsValues(t *testing.T) {
	r := NewRegistry()
	c, err := ParseArgs(r, []string{
		"-XX:MaxHeapSize=2g",
		"-XX:CompileThreshold=2500",
		"-XX:NewRatio=3",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Int("MaxHeapSize") != 2<<30 {
		t.Errorf("MaxHeapSize = %d", c.Int("MaxHeapSize"))
	}
	if c.Int("CompileThreshold") != 2500 || c.Int("NewRatio") != 3 {
		t.Error("int value parse mismatch")
	}
}

func TestParseArgsXAliases(t *testing.T) {
	r := NewRegistry()
	c, err := ParseArgs(r, []string{"-Xmx1g", "-Xms256m", "-Xmn128m", "-Xss1m"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Int("MaxHeapSize") != 1<<30 {
		t.Errorf("-Xmx: %d", c.Int("MaxHeapSize"))
	}
	if c.Int("InitialHeapSize") != 256<<20 {
		t.Errorf("-Xms: %d", c.Int("InitialHeapSize"))
	}
	if c.Int("NewSize") != 128<<20 || c.Int("MaxNewSize") != 128<<20 {
		t.Error("-Xmn should set both NewSize and MaxNewSize")
	}
	if c.Int("ThreadStackSize") != 1024 {
		t.Errorf("-Xss1m should store 1024 KB, got %d", c.Int("ThreadStackSize"))
	}
}

func TestParseArgsBoolEquals(t *testing.T) {
	r := NewRegistry()
	c, err := ParseArgs(r, []string{"-XX:UseG1GC=true", "-XX:UseParallelGC=false"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Bool("UseG1GC") || c.Bool("UseParallelGC") {
		t.Error("Flag=true/false form not honored")
	}
	if _, err := ParseArgs(r, []string{"-XX:UseG1GC=maybe"}); err == nil {
		t.Error("bad boolean literal accepted")
	}
}

func TestParseArgsUnlockIgnored(t *testing.T) {
	r := NewRegistry()
	c, err := ParseArgs(r, []string{"-XX:+UnlockExperimentalVMOptions", "-XX:+UnlockDiagnosticVMOptions"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ExplicitNames()) != 0 {
		t.Error("unlock pseudo-flags should not create assignments")
	}
}

func TestParseArgsErrors(t *testing.T) {
	r := NewRegistry()
	bad := [][]string{
		{"-XX:+NoSuchFlag"},
		{"-XX:NoSuchFlag=1"},
		{"-XX:MaxHeapSize=abc"},
		{"-XX:MaxHeapSize=999999g"}, // out of domain
		{"-XX:"},
		{"-XX:MaxHeapSize"}, // missing =
		{"-Xmxlots"},
		{"--heap=1g"},
		{"-XX:+CompileThreshold"}, // bool syntax on int flag
	}
	for _, args := range bad {
		if _, err := ParseArgs(r, args); err == nil {
			t.Errorf("ParseArgs(%v) should fail", args)
		}
	}
}

func TestRoundTripRenderParse(t *testing.T) {
	r := NewRegistry()
	c := NewConfig(r)
	c.SetBool("UseConcMarkSweepGC", true)
	c.SetBool("UseParallelGC", false)
	c.SetBool("UseParNewGC", true)
	c.SetInt("MaxHeapSize", 1536<<20)
	c.SetInt("SurvivorRatio", 4)
	c.SetInt("CMSInitiatingOccupancyFraction", 75)
	c.SetBool("TieredCompilation", true)

	parsed, err := ParseArgs(r, c.ExplicitArgs())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Key() != c.Key() {
		t.Errorf("round trip changed config:\n  in:  %s\n  out: %s", c.Key(), parsed.Key())
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"123", 123, true},
		{"1k", 1024, true},
		{"2K", 2048, true},
		{"3m", 3 << 20, true},
		{"4G", 4 << 30, true},
		{"", 0, false},
		{"k", 0, false},
		{"1.5g", 0, false},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("parseSize(%q) should fail", c.in)
		}
	}
}

// TestParseArgsRejectsOverflowingSizes: a suffixed size whose product
// overflows int64 once wrapped around into a small valid size, so
// -Xmx17179869185g measured as -Xmx1g. Outside input (evald requests,
// tuned submissions, -jvmsim command lines, stored priors) reaches this
// parser, so the overflow must be an error that names the argument.
func TestParseArgsRejectsOverflowingSizes(t *testing.T) {
	r := NewRegistry()
	for _, arg := range []string{
		"-Xmx17179869185g",
		"-XX:MaxHeapSize=17179869185g",
		"-XX:NewSize=18014398509481985k",
		"-Xmn9223372036854775807m",
		"-Xss-9007199254740993k",
	} {
		_, err := ParseArgs(r, []string{arg})
		if err == nil {
			t.Errorf("ParseArgs(%s) accepted an overflowing size", arg)
			continue
		}
		if !strings.Contains(err.Error(), strconv.Quote(arg)) {
			t.Errorf("ParseArgs(%s) error %q does not name the argument", arg, err)
		}
	}
}

// TestParseSizeSuffixProperty: every accepted suffixed size is exactly
// n×factor, and every rejected one is a product outside int64.
func TestParseSizeSuffixProperty(t *testing.T) {
	factors := map[string]int64{"": 1, "k": 1 << 10, "K": 1 << 10, "m": 1 << 20, "M": 1 << 20, "g": 1 << 30, "G": 1 << 30}
	check := func(n int64, shift uint8, pick uint8) bool {
		n >>= shift % 64 // reach small and huge magnitudes alike
		suffixes := []string{"", "k", "K", "m", "M", "g", "G"}
		suffix := suffixes[int(pick)%len(suffixes)]
		factor := factors[suffix]
		got, err := parseSize(strconv.FormatInt(n, 10) + suffix)
		exact := new(big.Int).Mul(big.NewInt(n), big.NewInt(factor))
		if !exact.IsInt64() {
			return err != nil
		}
		return err == nil && got == exact.Int64()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	// The boundaries themselves.
	for _, c := range []struct {
		in string
		ok bool
	}{
		{"8589934591g", true}, {"8589934592g", false},
		{"-8589934592g", true}, {"-8589934593g", false},
		{"9007199254740991k", true}, {"9007199254740992k", false},
	} {
		if _, err := parseSize(c.in); (err == nil) != c.ok {
			t.Errorf("parseSize(%s): err %v, want ok=%v", c.in, err, c.ok)
		}
	}
}

// TestExplicitArgsKeepForcedDefaults: the forced default whose
// explicitness matters survives in both renderings, which are one form;
// a forced default whose explicitness does not matter is dropped from
// both.
func TestExplicitArgsKeepForcedDefaults(t *testing.T) {
	r := NewRegistry()
	c := NewConfig(r)
	c.SetBool("UseParallelGC", true) // explicit, equal to default
	c.SetBool("UseG1GC", true)
	c.SetBool("UseCompressedOops", true) // explicit, equal to default
	want := []string{"-XX:+UseG1GC", "-XX:+UseParallelGC"}
	if got := c.ExplicitArgs(); !reflect.DeepEqual(got, want) {
		t.Errorf("ExplicitArgs = %v, want %v", got, want)
	}
	if got := c.ExplicitArgs(); !reflect.DeepEqual(got, want) {
		t.Errorf("ExplicitArgs = %v, want %v", got, want)
	}
	if got, want := c.Key(), "UseG1GC=true,UseParallelGC=true"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
}

// Property: ExplicitArgs round-trips the canonical form exactly — the key,
// the canonical explicit set and every effective value — and nothing
// beyond it: the fidelity the subprocess runner and the distributed
// evaluation plane depend on.
func TestExplicitArgsRoundTripsExplicitness(t *testing.T) {
	reg := NewRegistry()
	names := reg.TunableNames()
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 200; trial++ {
		c := NewConfig(reg)
		n := 1 + rng.Intn(24)
		for i := 0; i < n; i++ {
			name := names[rng.Intn(len(names))]
			c.put(name, SampleValue(reg.Lookup(name), rng))
		}
		parsed, err := ParseArgs(reg, c.ExplicitArgs())
		if err != nil {
			t.Fatalf("trial %d: cannot parse own rendering: %v", trial, err)
		}
		if parsed.Key() != c.Key() {
			t.Fatalf("trial %d: key changed: %q vs %q", trial, parsed.Key(), c.Key())
		}
		var canonical []string
		for _, name := range c.ExplicitNames() {
			v, _ := c.Get(name)
			if f := reg.Lookup(name); f.ExplicitMatters || !v.Equal(f.Type, f.Default) {
				canonical = append(canonical, name)
			}
		}
		if got := parsed.ExplicitNames(); !slices.Equal(got, canonical) {
			t.Fatalf("trial %d: explicit set is not the canonical form\n in: %v\nout: %v", trial, canonical, got)
		}
		for _, name := range c.ExplicitNames() {
			av, _ := c.Get(name)
			bv, _ := parsed.Get(name)
			if f := reg.Lookup(name); !av.Equal(f.Type, bv) {
				t.Fatalf("trial %d: %s changed value across the wire", trial, name)
			}
		}
		if got, want := parsed.ExplicitArgs(), c.ExplicitArgs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: rendering is not a fixed point\n in: %v\nout: %v", trial, want, got)
		}
	}
}
