package flags

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file is the packed↔map differential oracle. The packed Config (a
// value array indexed by flag ID) replaced the original map[string]Value
// representation wholesale; the checkpoint format, the traces, and the
// runner cache all key off Config.Key(), so the two representations must
// agree byte-for-byte on every observable. mapConfig below is a faithful
// replica of the retired map implementation, of the retired fmt-based
// argument renderer, and of the retired string-valued Value, keyed and
// rendered under the canonical rule from its own list of flags whose
// explicitness matters. The fuzz target drives both through parsing, key
// canonicalization, command-line rendering, and validation on arbitrary
// inputs.

// mapValue is the retired Value: an enum held its choice's name in S,
// where Value now holds the choice's index in I.
type mapValue struct {
	B bool
	I int64
	S string
}

// mapValueOf converts v, a value of f, to the retired representation.
func mapValueOf(f *Flag, v Value) mapValue {
	if f.Type == Enum {
		return mapValue{S: f.Choices[v.I]}
	}
	return mapValue{B: v.B, I: v.I}
}

func (v mapValue) equal(t Type, o mapValue) bool {
	switch t {
	case Bool:
		return v.B == o.B
	case Int:
		return v.I == o.I
	case Enum:
		return v.S == o.S
	}
	return false
}

func (v mapValue) String(t Type) string {
	switch t {
	case Bool:
		return strconv.FormatBool(v.B)
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Enum:
		return v.S
	}
	return "?"
}

// mapValidate is the retired Flag.Validate over string-valued enums.
func mapValidate(f *Flag, v mapValue) error {
	switch f.Type {
	case Bool:
		return nil
	case Int:
		if v.I < f.Min || v.I > f.Max {
			return fmt.Errorf("flags: %s=%d outside [%d, %d]", f.Name, v.I, f.Min, f.Max)
		}
		return nil
	case Enum:
		for _, c := range f.Choices {
			if c == v.S {
				return nil
			}
		}
		return &mapChoiceError{fmt.Errorf("flags: %s=%q not in %v", f.Name, v.S, f.Choices)}
	}
	return fmt.Errorf("flags: %s has unknown type %v", f.Name, f.Type)
}

// mapChoiceError marks the reference's rejection of an enum choice, whose
// text the packed parser must reproduce exactly: tuned returns it in 400
// bodies.
type mapChoiceError struct{ error }

// mapConfig is the reference map-based configuration.
type mapConfig struct {
	reg    *Registry
	values map[string]mapValue
}

func newMapConfig(reg *Registry) *mapConfig {
	return &mapConfig{reg: reg, values: make(map[string]mapValue)}
}

func (c *mapConfig) set(name string, v mapValue) error {
	f := c.reg.Lookup(name)
	if f == nil {
		return unknownFlag(name, "flags: unknown flag %s", name)
	}
	if err := mapValidate(f, v); err != nil {
		return err
	}
	c.values[name] = v
	return nil
}

func (c *mapConfig) explicitNames() []string {
	out := make([]string, 0, len(c.values))
	for n := range c.values {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// mapExplicitMatters names the flags whose explicit assignment the
// reference keeps even at the default value. It is the reference's own
// list, not the catalog's field, so a catalog edit shows up here as a
// divergence.
var mapExplicitMatters = map[string]bool{"UseParallelGC": true}

// canonical is the reference's rule for the canonical form: an explicit
// assignment stays if it is off its default or its flag is listed in
// mapExplicitMatters.
func (c *mapConfig) canonical(n string) bool {
	f := c.reg.Lookup(n)
	return mapExplicitMatters[n] || !c.values[n].equal(f.Type, mapValueOf(f, f.Default))
}

// key mirrors the retired map-based Config.Key under the canonical rule:
// sorted "name=value" pairs of the canonical form joined by commas.
func (c *mapConfig) key() string {
	var parts []string
	for _, n := range c.explicitNames() {
		if !c.canonical(n) {
			continue
		}
		f := c.reg.Lookup(n)
		parts = append(parts, n+"="+c.values[n].String(f.Type))
	}
	return strings.Join(parts, ",")
}

// renderArgs mirrors the retired fmt-based renderer under the canonical
// rule, the one form behind ExplicitArgs: one formatted string per
// argument.
func (c *mapConfig) renderArgs() []string {
	var args []string
	needExperimental, needDiagnostic := false, false
	for _, n := range c.explicitNames() {
		f := c.reg.Lookup(n)
		v := c.values[n]
		if !c.canonical(n) {
			continue
		}
		switch f.Kind {
		case Experimental:
			needExperimental = true
		case Diagnostic:
			needDiagnostic = true
		}
		switch f.Type {
		case Bool:
			sign := "-"
			if v.B {
				sign = "+"
			}
			args = append(args, "-XX:"+sign+n)
		case Int:
			args = append(args, fmt.Sprintf("-XX:%s=%s", n, renderInt(f, v.I)))
		case Enum:
			args = append(args, fmt.Sprintf("-XX:%s=%s", n, v.S))
		}
	}
	var prefix []string
	if needExperimental {
		prefix = append(prefix, "-XX:+UnlockExperimentalVMOptions")
	}
	if needDiagnostic {
		prefix = append(prefix, "-XX:+UnlockDiagnosticVMOptions")
	}
	return append(prefix, args...)
}

// renderInt is the retired renderer's integer form: byte-valued flags
// take the shortest exact k/m/g suffix.
func renderInt(f *Flag, v int64) string {
	if f.Unit == Bytes {
		switch {
		case v != 0 && v%(1<<30) == 0:
			return strconv.FormatInt(v>>30, 10) + "g"
		case v != 0 && v%(1<<20) == 0:
			return strconv.FormatInt(v>>20, 10) + "m"
		case v != 0 && v%(1<<10) == 0:
			return strconv.FormatInt(v>>10, 10) + "k"
		}
	}
	return strconv.FormatInt(v, 10)
}

func (c *mapConfig) validate() error {
	for _, n := range c.explicitNames() {
		f := c.reg.Lookup(n)
		if f == nil {
			return unknownFlag(n, "flags: config contains unknown flag %s", n)
		}
		if err := mapValidate(f, c.values[n]); err != nil {
			return err
		}
	}
	return nil
}

// applyArgs mirrors the retired map-based ParseArgs semantics (including
// which forms bypassed Set's domain validation) closely enough to parse
// everything the real parser accepts. It returns the first error.
func (c *mapConfig) applyArgs(args []string) error {
	for _, a := range args {
		var err error
		switch {
		case strings.HasPrefix(a, "-XX:"):
			err = c.applyXX(a[len("-XX:"):], a)
		case strings.HasPrefix(a, "-Xmx"):
			err = c.applySize("MaxHeapSize", a[len("-Xmx"):], 1)
		case strings.HasPrefix(a, "-Xms"):
			err = c.applySize("InitialHeapSize", a[len("-Xms"):], 1)
		case strings.HasPrefix(a, "-Xmn"):
			if err = c.applySize("NewSize", a[len("-Xmn"):], 1); err == nil {
				err = c.applySize("MaxNewSize", a[len("-Xmn"):], 1)
			}
		case strings.HasPrefix(a, "-Xss"):
			err = c.applySize("ThreadStackSize", a[len("-Xss"):], 1024)
		default:
			err = unknownFlag(a, "unrecognized")
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *mapConfig) applyXX(body, orig string) error {
	if body == "" {
		return unknownFlag(orig, "malformed")
	}
	switch body[0] {
	case '+', '-':
		name := body[1:]
		if name == "UnlockExperimentalVMOptions" || name == "UnlockDiagnosticVMOptions" {
			return nil
		}
		f := c.reg.Lookup(name)
		if f == nil || f.Type != Bool {
			return unknownFlag(name, "bad bool flag")
		}
		c.values[name] = mapValue{B: body[0] == '+'}
		return nil
	}
	eq := strings.IndexByte(body, '=')
	if eq < 0 {
		return unknownFlag(orig, "malformed")
	}
	name, raw := body[:eq], body[eq+1:]
	f := c.reg.Lookup(name)
	if f == nil {
		return unknownFlag(name, "unknown")
	}
	switch f.Type {
	case Int:
		v, err := parseSize(raw)
		if err != nil {
			return err
		}
		return c.set(name, mapValue{I: v})
	case Enum:
		return c.set(name, mapValue{S: raw})
	case Bool:
		switch raw {
		case "true", "false":
			c.values[name] = mapValue{B: raw == "true"}
			return nil
		}
		return unknownFlag(raw, "bad bool value")
	}
	return unknownFlag(name, "unknown type")
}

func (c *mapConfig) applySize(name, raw string, divisor int64) error {
	v, err := parseSize(raw)
	if err != nil {
		return err
	}
	return c.set(name, mapValue{I: v / divisor})
}

// fuzzRegistry is the standard catalog plus enum flags of every kind: the
// standard catalog has none, and index-valued enums must render, key and
// fail exactly as the retired string-valued ones did.
func fuzzRegistry(t testing.TB) *Registry {
	t.Helper()
	defs := append(catalog(), inertCatalog()...)
	defs = append(defs,
		Flag{Name: "EnumGCPolicy", Type: Enum, Kind: Product,
			Choices: []string{"throughput", "latency", "footprint"}, Default: EnumValue(0)},
		Flag{Name: "EnumCompilerMode", Type: Enum, Kind: Experimental,
			Choices: []string{"c1", "c2", "graal"}, Default: EnumValue(1)},
		Flag{Name: "EnumTraceLevel", Type: Enum, Kind: Diagnostic,
			Choices: []string{"off", "summary", "full"}, Default: EnumValue(2)},
	)
	reg, err := NewCustomRegistry(defs)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// FuzzPackedMapEquivalence feeds arbitrary java-style argument lines to the
// packed parser and the map-based reference, then asserts the observables
// every persisted format depends on — Key, ExplicitArgs, and
// Validate — are byte-identical, and that a rejected enum choice fails
// with the reference's exact text. Seeded with the round-trip corpus, an
// enum-heavy line and G1 next to an explicit -XX:+UseParallelGC.
func FuzzPackedMapEquivalence(f *testing.F) {
	for _, seed := range []string{
		"",
		"-Xmx4g",
		"-Xms512m -Xmx2g",
		"-XX:+UseG1GC -XX:MaxGCPauseMillis=50",
		"-XX:+UseParallelGC -XX:ParallelGCThreads=8",
		"-XX:-TieredCompilation -XX:CICompilerCount=2",
		"-XX:NewRatio=3 -XX:SurvivorRatio=6",
		"-XX:MaxHeapSize=1536m -Xss2m",
		"-XX:+UseSerialGC -XX:TargetSurvivorRatio=60",
		"-XX:GCTimeRatio=19 -XX:+UseStringDeduplication",
		"-XX:+UseParallelGC -XX:StringDeduplicationAgeThreshold=3 -XX:+VerifyBeforeGC -Xmx3g -Xmn1536m -XX:CompileThreshold=1025",
		enumHeavySeed,
		"-XX:+UseG1GC -XX:+UseParallelGC",
	} {
		f.Add(seed)
	}
	reg := fuzzRegistry(f)
	f.Fuzz(func(t *testing.T, line string) {
		args := strings.Fields(line)
		packed, err := ParseArgs(reg, args)
		ref := newMapConfig(reg)
		rerr := ref.applyArgs(args)
		if err != nil {
			// The reference parser is a semantic mirror, not an error-message
			// mirror, except for enum choices; equivalence is asserted on
			// accepted inputs.
			var choice *mapChoiceError
			if errors.As(rerr, &choice) && err.Error() != choice.Error() {
				t.Fatalf("enum choice error diverged on %q:\n  packed %q\n  map    %q", args, err, choice)
			}
			t.Skip()
		}
		if rerr != nil {
			t.Fatalf("packed parser accepted %q but reference rejected it: %v", args, rerr)
		}

		if pk, rk := packed.Key(), ref.key(); pk != rk {
			t.Fatalf("Key diverged on %q:\n  packed %q\n  map    %q", args, pk, rk)
		}
		// The rendering, argument by argument: a nil list (no "args"
		// field on the wire) must stay apart from an empty one.
		rc := ref.renderArgs()
		if pe := packed.ExplicitArgs(); !reflect.DeepEqual(pe, rc) {
			t.Fatalf("ExplicitArgs diverged on %q:\n  packed %q\n  map    %q", args, pe, rc)
		}
		perr, rerr := packed.Validate(), ref.validate()
		if (perr == nil) != (rerr == nil) {
			t.Fatalf("Validate diverged on %q: packed=%v map=%v", args, perr, rerr)
		}
		if perr != nil && perr.Error() != rerr.Error() {
			t.Fatalf("Validate messages diverged on %q:\n  packed %q\n  map    %q",
				args, perr, rerr)
		}
		// Explicit-name enumeration drives checkpoint encoding; it must agree
		// including flags explicitly set to their defaults.
		if pn, rn := packed.ExplicitNames(), ref.explicitNames(); strings.Join(pn, ",") != strings.Join(rn, ",") {
			t.Fatalf("ExplicitNames diverged on %q:\n  packed %v\n  map    %v", args, pn, rn)
		}
	})
}

// TestPackedMapValidateOutOfDomain covers the corner the fuzzer cannot
// reach through the parser: values injected past domain validation (stale
// checkpoints, future decode paths). Both representations must report the
// same violation.
func TestPackedMapValidateOutOfDomain(t *testing.T) {
	reg := NewRegistry()
	packed := NewConfig(reg)
	ref := newMapConfig(reg)

	packed.putID(reg.ID("CICompilerCount"), IntValue(1<<40))
	ref.values["CICompilerCount"] = mapValue{I: 1 << 40}

	perr, rerr := packed.Validate(), ref.validate()
	if perr == nil || rerr == nil {
		t.Fatalf("out-of-domain value accepted: packed=%v map=%v", perr, rerr)
	}
	if perr.Error() != rerr.Error() {
		t.Fatalf("violation messages diverged:\n  packed %q\n  map    %q", perr, rerr)
	}
}

// enumHeavySeed sets every test enum: one explicitly to its default, one
// off its default, and the diagnostic one twice, so the unlock prefixes,
// both renderings and last-write-wins all see index-valued enums.
const enumHeavySeed = "-XX:EnumCompilerMode=c2 -XX:EnumGCPolicy=footprint -XX:+UseG1GC " +
	"-XX:EnumTraceLevel=full -XX:EnumTraceLevel=off -XX:MaxGCPauseMillis=50"

// TestPackedMapEnumChoiceErrors replays rejected enum choices: the packed
// parser must fail with the retired representation's exact text.
func TestPackedMapEnumChoiceErrors(t *testing.T) {
	reg := fuzzRegistry(t)
	for _, line := range []string{
		"-XX:EnumGCPolicy=fast",
		"-XX:EnumGCPolicy=",
		"-XX:+UseG1GC -XX:EnumTraceLevel=Full",
		"-XX:EnumCompilerMode=c1 -XX:EnumCompilerMode=\"c2\"",
	} {
		args := strings.Fields(line)
		_, err := ParseArgs(reg, args)
		rerr := newMapConfig(reg).applyArgs(args)
		var choice *mapChoiceError
		if err == nil || !errors.As(rerr, &choice) {
			t.Fatalf("%q: packed error %v, reference error %v; want both to reject the choice", line, err, rerr)
		}
		if err.Error() != choice.Error() {
			t.Errorf("%q: packed %q, reference %q", line, err, choice)
		}
	}
}
