// Package flags models the HotSpot JVM's run-time flag universe: typed flag
// definitions with domains, a registry of 600+ JDK-7-era flags, concrete
// configurations (flag → value assignments), validation, and translation to
// and from java-style command lines (-Xmx…, -XX:±Flag, -XX:Flag=value).
//
// The package is deliberately ignorant of what the flags *do*; performance
// semantics live in internal/jvmsim and structural dependencies (which flag
// is relevant under which garbage collector, etc.) live in
// internal/hierarchy. This separation mirrors the paper's architecture: the
// tuner manipulates configurations symbolically and only the JVM (here, its
// simulator) knows their effect.
package flags

import (
	"fmt"
	"strconv"
)

// Type is the value type of a flag.
type Type int

const (
	// Bool flags are switched with -XX:+Name / -XX:-Name.
	Bool Type = iota
	// Int flags carry an integer value, -XX:Name=v. Sizes are in bytes.
	Int
	// Enum flags take one of a fixed set of choices, -XX:Name=choice.
	Enum
)

// String returns the lowercase name of the type.
func (t Type) String() string {
	switch t {
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Enum:
		return "enum"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Kind classifies a flag the way HotSpot does. Only Product and Experimental
// flags are tunable by default; Diagnostic and Develop flags exist so the
// registry is a faithful model of the ~600-flag universe the paper cites.
type Kind int

const (
	// Product flags are supported, stable tuning knobs.
	Product Kind = iota
	// Experimental flags require -XX:+UnlockExperimentalVMOptions.
	Experimental
	// Diagnostic flags require -XX:+UnlockDiagnosticVMOptions.
	Diagnostic
	// Develop flags are only available in debug builds of the VM.
	Develop
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Product:
		return "product"
	case Experimental:
		return "experimental"
	case Diagnostic:
		return "diagnostic"
	case Develop:
		return "develop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Unit describes how an Int flag's value should be rendered for humans.
type Unit int

const (
	// None is a bare number (counts, ratios, thresholds).
	None Unit = iota
	// Bytes values are rendered with k/m/g suffixes on the command line.
	Bytes
	// Millis values are durations in milliseconds.
	Millis
	// Percent values are 0..100.
	Percent
)

// Category groups flags by the JVM subsystem they control. Categories are
// the coarse level of the paper's flag hierarchy.
type Category string

// The subsystem categories used by the registry.
const (
	CatGC      Category = "gc"
	CatHeap    Category = "heap"
	CatJIT     Category = "jit"
	CatInline  Category = "inline"
	CatThreads Category = "threads"
	CatRuntime Category = "runtime"
	CatDebug   Category = "debug"
)

// Flag is the definition (not the value) of one JVM flag.
type Flag struct {
	Name        string
	Type        Type
	Kind        Kind
	Category    Category
	Description string

	// Default is the value the flag takes when unset, matching HotSpot's
	// server-VM defaults of the JDK-7 era the paper used.
	Default Value

	// Min, Max and Step bound Int flags. Step is the granularity used when
	// sampling or producing neighbors; 0 means 1.
	Min, Max, Step int64
	// LogScale marks Int flags whose useful values span orders of magnitude
	// (heap sizes, compile thresholds); samplers draw them log-uniformly.
	LogScale bool
	// Unit describes how to render Int values.
	Unit Unit

	// Choices enumerates Enum values; Choices[0] need not be the default.
	// An Enum Value holds an index into Choices.
	Choices []string

	// Inert marks flags with no modeled performance effect. Most of
	// HotSpot's 600+ flags are observability or verification toggles; the
	// simulator charges OverheadPct when such a flag is enabled (Bool) or
	// moved off its default (Int/Enum), and otherwise ignores it.
	Inert bool
	// OverheadPct is the relative slowdown (e.g. 0.02 = 2%) the simulator
	// charges when an inert flag is engaged. Zero means truly free.
	OverheadPct float64

	// ExplicitMatters marks flags whose explicit assignment changes VM
	// behaviour even at the default value, the way HotSpot's ergonomics
	// test FLAG_IS_DEFAULT: an explicit -XX:+UseParallelGC conflicts with
	// another collector, a defaulted one does not. The canonical form of a
	// configuration keeps such assignments; every other flag appears in it
	// only off its default.
	ExplicitMatters bool
}

// canonical reports whether an explicit assignment of v to f belongs to
// the canonical form of a configuration: it is off f's default, or f's
// explicitness matters. Key and the argument renderer share this rule.
func (f *Flag) canonical(v Value) bool {
	return f.ExplicitMatters || !v.Equal(f.Type, f.Default)
}

// Value is the tagged value of a flag. Exactly one field is meaningful,
// selected by the owning flag's Type: B for Bool, I for Int, and for Enum
// the index of the choice in the flag's Choices. Value holds no pointers,
// so a Config's value array is allocated without pointer bits and the
// garbage collector never scans it.
type Value struct {
	B bool
	I int64
}

// BoolValue returns a Bool-typed value.
func BoolValue(b bool) Value { return Value{B: b} }

// IntValue returns an Int-typed value.
func IntValue(i int64) Value { return Value{I: i} }

// EnumValue returns the Enum-typed value selecting the choice at index i
// of the flag's Choices. Flag.ChoiceValue maps a choice's name to it.
func EnumValue(i int) Value { return Value{I: int64(i)} }

// Equal reports whether two values are identical under the given type.
func (v Value) Equal(t Type, o Value) bool {
	switch t {
	case Bool:
		return v.B == o.B
	case Int, Enum:
		return v.I == o.I
	}
	return false
}

// ValueString renders v as a value of f: "true"/"false", the decimal
// integer, or the enum choice's name. Reports and errors use it; it is
// the form Key renders.
func (f *Flag) ValueString(v Value) string {
	return string(f.appendValue(nil, v))
}

// appendValue appends v rendered as f's value (see ValueString) to dst.
func (f *Flag) appendValue(dst []byte, v Value) []byte {
	switch f.Type {
	case Bool:
		if v.B {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case Int:
		return strconv.AppendInt(dst, v.I, 10)
	case Enum:
		if v.I >= 0 && v.I < int64(len(f.Choices)) {
			return append(dst, f.Choices[v.I]...)
		}
	}
	return append(dst, '?')
}

// ChoiceValue returns the Enum value selecting the named choice. A name
// outside f's Choices yields the VM-style error that parsing reports.
func (f *Flag) ChoiceValue(choice string) (Value, error) {
	for i, c := range f.Choices {
		if c == choice {
			return EnumValue(i), nil
		}
	}
	return Value{}, fmt.Errorf("flags: %s=%q not in %v", f.Name, choice, f.Choices)
}

// step returns the effective sampling granularity of an Int flag.
func (f *Flag) step() int64 {
	if f.Step <= 0 {
		return 1
	}
	return f.Step
}

// Validate reports whether v is inside f's domain.
func (f *Flag) Validate(v Value) error {
	switch f.Type {
	case Bool:
		return nil
	case Int:
		if v.I < f.Min || v.I > f.Max {
			return fmt.Errorf("flags: %s=%d outside [%d, %d]", f.Name, v.I, f.Min, f.Max)
		}
		return nil
	case Enum:
		if v.I < 0 || v.I >= int64(len(f.Choices)) {
			return fmt.Errorf("flags: %s choice %d outside %v", f.Name, v.I, f.Choices)
		}
		return nil
	}
	return fmt.Errorf("flags: %s has unknown type %v", f.Name, f.Type)
}

// Clamp returns v forced into f's domain. For Enum flags an out-of-range
// choice index is replaced by the default.
func (f *Flag) Clamp(v Value) Value {
	switch f.Type {
	case Int:
		if v.I < f.Min {
			v.I = f.Min
		}
		if v.I > f.Max {
			v.I = f.Max
		}
	case Enum:
		if f.Validate(v) != nil {
			return f.Default
		}
	}
	return v
}

// DomainSize returns the number of distinct values the flag can take at its
// Step granularity. Used for search-space accounting (Table 3).
func (f *Flag) DomainSize() int64 {
	switch f.Type {
	case Bool:
		return 2
	case Int:
		return (f.Max-f.Min)/f.step() + 1
	case Enum:
		return int64(len(f.Choices))
	}
	return 1
}

// Tunable reports whether the auto-tuner is allowed to modify this flag.
// Product and Experimental flags are tunable; Diagnostic and Develop flags
// are excluded, matching what a real tuning run against a release VM can do.
func (f *Flag) Tunable() bool {
	return f.Kind == Product || f.Kind == Experimental
}
