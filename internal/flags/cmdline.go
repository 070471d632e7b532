package flags

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// ExplicitArgs renders the canonical form of c (see Key) as java-style
// arguments: -XX:+Flag / -XX:-Flag for booleans and -XX:Flag=value for
// integers and enums. Byte-valued flags use the shortest exact k/m/g
// suffix. The slice is sorted (by flag name) and deterministic.
//
// Experimental flags are preceded by -XX:+UnlockExperimentalVMOptions and
// diagnostic flags by -XX:+UnlockDiagnosticVMOptions, exactly once, as a
// real launch would require.
//
// The canonical form is every assignment off its default plus the explicit
// assignments of flags whose explicitness matters, so ParseArgs of the
// result has c's Key, and rendering that again gives the same arguments:
// reports and persisted results reload to exactly the configuration that
// was measured. The subprocess runner, the distributed evaluation plane,
// transfer-store entries and drift priors ship configs in this form too:
// an explicit assignment that equals a default and whose explicitness does
// not matter changes nothing the VM does, so it is left off the wire.
func (c *Config) ExplicitArgs() []string {
	// Every argument goes into one recycled buffer, and the result is
	// substrings of one string: a render allocates that string and the
	// slice, however wide the config.
	sc := renderScratch.Get().(*argScratch)
	defer renderScratch.Put(sc)
	buf, ends := sc.buf[:0], sc.ends[:0]
	needExperimental, needDiagnostic := false, false
	for i, id := range c.ids {
		f, v := c.reg.byID[id], c.vals[i]
		if !f.canonical(v) {
			continue
		}
		switch f.Kind {
		case Experimental:
			needExperimental = true
		case Diagnostic:
			needDiagnostic = true
		}
		buf = appendArg(buf, f, v)
		ends = append(ends, len(buf))
	}
	sc.buf, sc.ends = buf, ends
	if len(ends) == 0 {
		return nil
	}
	args := make([]string, 0, len(ends)+2)
	if needExperimental {
		args = append(args, "-XX:+UnlockExperimentalVMOptions")
	}
	if needDiagnostic {
		args = append(args, "-XX:+UnlockDiagnosticVMOptions")
	}
	s := string(buf)
	start := 0
	for _, end := range ends {
		args = append(args, s[start:end])
		start = end
	}
	return args
}

// renderScratch recycles ExplicitArgs's buffer and argument ends across
// calls and goroutines.
var renderScratch = sync.Pool{New: func() any { return new(argScratch) }}

type argScratch struct {
	buf  []byte
	ends []int
}

// appendArg appends the java-style argument assigning v to f.
func appendArg(dst []byte, f *Flag, v Value) []byte {
	dst = append(dst, "-XX:"...)
	if f.Type == Bool {
		sign := byte('-')
		if v.B {
			sign = '+'
		}
		return append(append(dst, sign), f.Name...)
	}
	dst = append(append(dst, f.Name...), '=')
	if f.Type == Int {
		return appendInt(dst, f, v.I)
	}
	return f.appendValue(dst, v)
}

// appendInt appends v as f's value. Byte-valued flags use the shortest
// exact k/m/g suffix.
func appendInt(dst []byte, f *Flag, v int64) []byte {
	if f.Unit == Bytes && v != 0 {
		switch {
		case v%(1<<30) == 0:
			return append(strconv.AppendInt(dst, v>>30, 10), 'g')
		case v%(1<<20) == 0:
			return append(strconv.AppendInt(dst, v>>20, 10), 'm')
		case v%(1<<10) == 0:
			return append(strconv.AppendInt(dst, v>>10, 10), 'k')
		}
	}
	return strconv.AppendInt(dst, v, 10)
}

// ParseArgs applies java-style arguments to a fresh configuration over reg.
// Supported forms:
//
//	-XX:+Flag      -XX:-Flag      -XX:Flag=value
//	-Xmx<size>     (MaxHeapSize)  -Xms<size> (InitialHeapSize)
//	-Xmn<size>     (NewSize and MaxNewSize)
//	-Xss<size>     (ThreadStackSize, stored in KB as HotSpot does)
//
// Sizes accept optional k/K, m/M, g/G suffixes. Unknown flags and malformed
// values return an error identifying the offending argument, mirroring the
// VM's "Unrecognized VM option" failure mode. The Unlock*VMOptions pseudo
// flags are accepted and ignored (they gate, they don't tune).
func ParseArgs(reg *Registry, args []string) (*Config, error) {
	c := NewConfig(reg)
	if err := ParseArgsInto(c, args); err != nil {
		return nil, err
	}
	return c, nil
}

// ParseArgsInto parses args into an existing configuration, resetting it
// first — the recycling twin of ParseArgs for callers that reuse scratch
// Configs via Registry.AcquireConfig. On error the config's contents are
// undefined and it must be reset (or released) before reuse.
func ParseArgsInto(c *Config, args []string) error {
	c.Reset()
	for _, a := range args {
		if err := c.applyArg(a); err != nil {
			return err
		}
	}
	return nil
}

func (c *Config) applyArg(a string) error {
	switch {
	case strings.HasPrefix(a, "-XX:"):
		return c.applyXX(a[len("-XX:"):], a)
	case strings.HasPrefix(a, "-Xmx"):
		return c.applySize("MaxHeapSize", a[len("-Xmx"):], a, 1)
	case strings.HasPrefix(a, "-Xms"):
		return c.applySize("InitialHeapSize", a[len("-Xms"):], a, 1)
	case strings.HasPrefix(a, "-Xmn"):
		if err := c.applySize("NewSize", a[len("-Xmn"):], a, 1); err != nil {
			return err
		}
		return c.applySize("MaxNewSize", a[len("-Xmn"):], a, 1)
	case strings.HasPrefix(a, "-Xss"):
		// ThreadStackSize is kept in KB, as in HotSpot.
		return c.applySize("ThreadStackSize", a[len("-Xss"):], a, 1024)
	default:
		return fmt.Errorf("flags: unrecognized option %q", a)
	}
}

func (c *Config) applyXX(body, orig string) error {
	if body == "" {
		return fmt.Errorf("flags: malformed option %q", orig)
	}
	switch body[0] {
	case '+', '-':
		name := body[1:]
		if name == "UnlockExperimentalVMOptions" || name == "UnlockDiagnosticVMOptions" {
			return nil
		}
		id := c.reg.ID(name)
		if id == NoID {
			return unknownFlag(name, "flags: unrecognized VM option %q", name)
		}
		if c.reg.byID[id].Type != Bool {
			return fmt.Errorf("flags: %s is not a boolean flag (%q)", name, orig)
		}
		c.putID(id, BoolValue(body[0] == '+'))
		return nil
	}
	eq := strings.IndexByte(body, '=')
	if eq < 0 {
		return fmt.Errorf("flags: malformed option %q", orig)
	}
	name, raw := body[:eq], body[eq+1:]
	id := c.reg.ID(name)
	if id == NoID {
		return unknownFlag(name, "flags: unrecognized VM option %q", name)
	}
	switch c.reg.byID[id].Type {
	case Int:
		v, err := parseSize(raw)
		if err != nil {
			return fmt.Errorf("flags: bad value for %s in %q: %v", name, orig, err)
		}
		return c.SetID(id, IntValue(v))
	case Enum:
		v, err := c.reg.byID[id].ChoiceValue(raw)
		if err != nil {
			return err
		}
		c.putID(id, v)
		return nil
	case Bool:
		switch raw {
		case "true":
			c.putID(id, BoolValue(true))
			return nil
		case "false":
			c.putID(id, BoolValue(false))
			return nil
		}
		return fmt.Errorf("flags: bad boolean value for %s in %q", name, orig)
	}
	return fmt.Errorf("flags: %s has unknown type", name)
}

func (c *Config) applySize(name, raw, orig string, divisor int64) error {
	v, err := parseSize(raw)
	if err != nil {
		return fmt.Errorf("flags: bad size in %q: %v", orig, err)
	}
	f := c.reg.Lookup(name)
	if f == nil {
		return fmt.Errorf("flags: option %q maps to unknown flag %s", orig, name)
	}
	return c.Set(name, IntValue(v/divisor))
}

// parseSize parses an integer with an optional k/m/g suffix (case
// insensitive). A product that overflows int64 is an error, never a
// wrapped-around size.
func parseSize(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt64/mult || n < math.MinInt64/mult {
		return 0, fmt.Errorf("size %s×%d overflows int64", s, mult)
	}
	return n * mult, nil
}
