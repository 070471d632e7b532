package flags

import (
	"fmt"
	"sort"
	"strconv"
)

// UnknownFlagError is the typed validation error for a reference to a flag
// name the registry does not define. It is what network-facing surfaces
// (the tuned HTTP API, the command-line parser) rely on to turn a bogus
// flag name in a submission into a 400 response instead of a panic.
type UnknownFlagError struct {
	// Name is the unknown flag name.
	Name string
	// msg preserves the exact diagnostic of the call site (Set, Validate,
	// ParseArgs) so error text stays byte-stable across refactors.
	msg string
}

// Error implements error.
func (e *UnknownFlagError) Error() string { return e.msg }

// unknownFlag builds an UnknownFlagError with a call-site-specific message.
func unknownFlag(name, format string, args ...any) *UnknownFlagError {
	return &UnknownFlagError{Name: name, msg: fmt.Sprintf(format, args...)}
}

// Config is a concrete assignment of values to flags in one registry,
// packed as a fixed-size value array indexed by flag ID: resolution,
// canonical keys, cloning, validation, and command-line rendering are all
// array walks in ID (= sorted-name) order, with no hashing or sorting on
// the hot path. Flags not explicitly set take their registry defaults; Get
// resolves that transparently. Config is not safe for concurrent mutation;
// the tuner clones before handing configs to worker goroutines.
type Config struct {
	reg      *Registry
	vals     []Value // indexed by ID; meaningful only where explicit
	explicit []bool  // indexed by ID
	ids      []ID    // sorted IDs of explicit assignments; len(ids) == n
	n        int     // number of explicit assignments
	memoKey  string  // Key() memo, valid when memoOK; any write clears it
	memoOK   bool
}

// NewConfig returns an empty configuration (all defaults) over reg.
func NewConfig(reg *Registry) *Config {
	return &Config{
		reg:      reg,
		vals:     make([]Value, reg.Len()),
		explicit: make([]bool, reg.Len()),
	}
}

// Registry returns the registry this configuration is bound to.
func (c *Config) Registry() *Registry { return c.reg }

// Reset returns c to the all-defaults state (no explicit assignments),
// keeping its storage so high-rate parsing paths can recycle one Config
// instead of re-allocating the registry-wide value arrays per use. It
// clears only the explicit IDs, so a recycled parse is O(explicit): putID
// and Unset keep vals[id] zero unless explicit[id].
func (c *Config) Reset() {
	for _, id := range c.ids {
		c.explicit[id] = false
		c.vals[id] = Value{}
	}
	c.ids = c.ids[:0]
	c.n = 0
	c.memoOK = false
	c.memoKey = ""
}

// putID records an explicit assignment without validating it.
func (c *Config) putID(id ID, v Value) {
	if !c.explicit[id] {
		c.explicit[id] = true
		c.n++
		// Keep the explicit-ID list sorted so every canonical walk (keys,
		// args, validation) is O(explicit), not O(registry width). Args
		// arrive in ID order from every renderer, so the common case is an
		// append; anything else is a binary search and a short memmove.
		if k := len(c.ids); k == 0 || c.ids[k-1] < id {
			c.ids = append(c.ids, id)
		} else {
			i := sort.Search(k, func(j int) bool { return c.ids[j] >= id })
			c.ids = append(c.ids, 0)
			copy(c.ids[i+1:], c.ids[i:])
			c.ids[i] = id
		}
	}
	c.vals[id] = v
	c.memoOK = false
	c.memoKey = ""
}

// put records an explicit assignment by name without validating the value.
// The name must exist in the registry; package-internal callers check first.
func (c *Config) put(name string, v Value) {
	c.putID(c.reg.idOf[name], v)
}

// Set assigns v to the named flag, validating both the name and the domain.
// Unknown names yield an *UnknownFlagError.
func (c *Config) Set(name string, v Value) error {
	id := c.reg.ID(name)
	if id == NoID {
		return unknownFlag(name, "flags: unknown flag %s", name)
	}
	if err := c.reg.byID[id].Validate(v); err != nil {
		return err
	}
	c.putID(id, v)
	return nil
}

// SetID assigns v to the flag with the given ID, validating the domain.
func (c *Config) SetID(id ID, v Value) error {
	if err := c.reg.byID[id].Validate(v); err != nil {
		return err
	}
	c.putID(id, v)
	return nil
}

// SetBool assigns a boolean flag. It panics on unknown names or type
// mismatches, which are programming errors in callers that hard-code names.
func (c *Config) SetBool(name string, b bool) {
	id, _ := c.mustID(name, Bool)
	c.putID(id, BoolValue(b))
}

// SetInt assigns an integer flag, clamping into the flag's domain.
func (c *Config) SetInt(name string, i int64) {
	id, f := c.mustID(name, Int)
	c.putID(id, f.Clamp(IntValue(i)))
}

// SetEnum assigns an enum flag. It panics on an unknown choice.
func (c *Config) SetEnum(name, choice string) {
	id, f := c.mustID(name, Enum)
	v := EnumValue(choice)
	if err := f.Validate(v); err != nil {
		panic(err.Error())
	}
	c.putID(id, v)
}

func (c *Config) mustID(name string, t Type) (ID, *Flag) {
	id := c.reg.ID(name)
	if id == NoID {
		panic(fmt.Sprintf("flags: unknown flag %s", name))
	}
	f := c.reg.byID[id]
	if f.Type != t {
		panic(fmt.Sprintf("flags: %s is %v, not %v", name, f.Type, t))
	}
	return id, f
}

// Get returns the effective value of name (explicit or default) and whether
// the flag exists.
func (c *Config) Get(name string) (Value, bool) {
	id := c.reg.ID(name)
	if id == NoID {
		return Value{}, false
	}
	return c.GetID(id), true
}

// GetID returns the effective value (explicit or default) of the flag with
// the given ID.
func (c *Config) GetID(id ID) Value {
	if c.explicit[id] {
		return c.vals[id]
	}
	return c.reg.byID[id].Default
}

// Bool returns the effective boolean value of name.
// It panics on unknown names or type mismatches.
func (c *Config) Bool(name string) bool {
	id, _ := c.mustID(name, Bool)
	return c.GetID(id).B
}

// Int returns the effective integer value of name.
// It panics on unknown names or type mismatches.
func (c *Config) Int(name string) int64 {
	id, _ := c.mustID(name, Int)
	return c.GetID(id).I
}

// Enum returns the effective enum value of name.
// It panics on unknown names or type mismatches.
func (c *Config) Enum(name string) string {
	id, _ := c.mustID(name, Enum)
	return c.GetID(id).S
}

// IsExplicit reports whether name was explicitly assigned (as opposed to
// inheriting its default).
func (c *Config) IsExplicit(name string) bool {
	id := c.reg.ID(name)
	return id != NoID && c.explicit[id]
}

// Unset removes an explicit assignment, reverting name to its default.
func (c *Config) Unset(name string) {
	id := c.reg.ID(name)
	if id == NoID || !c.explicit[id] {
		return
	}
	c.explicit[id] = false
	c.vals[id] = Value{}
	c.n--
	i := sort.Search(len(c.ids), func(j int) bool { return c.ids[j] >= id })
	c.ids = append(c.ids[:i], c.ids[i+1:]...)
	c.memoOK = false
	c.memoKey = ""
}

// ExplicitNames returns the sorted names of explicitly assigned flags.
func (c *Config) ExplicitNames() []string {
	out := make([]string, 0, c.n)
	for _, id := range c.ids {
		out = append(out, c.reg.names[id])
	}
	return out
}

// EachExplicit calls fn for every explicitly assigned flag in ID (sorted
// name) order, without allocating.
func (c *Config) EachExplicit(fn func(f *Flag, v Value)) {
	if c.n == 0 {
		return
	}
	for _, id := range c.ids {
		fn(c.reg.byID[id], c.vals[id])
	}
}

// Clone returns an independent copy of the configuration.
func (c *Config) Clone() *Config {
	cp := &Config{
		reg:      c.reg,
		vals:     make([]Value, len(c.vals)),
		explicit: make([]bool, len(c.explicit)),
		ids:      append([]ID(nil), c.ids...),
		n:        c.n,
		memoKey:  c.memoKey,
		memoOK:   c.memoOK,
	}
	copy(cp.vals, c.vals)
	copy(cp.explicit, c.explicit)
	return cp
}

// Key returns a canonical string identifying the *effective* configuration:
// only assignments that differ from the default appear, sorted by name.
// Two configs with equal Keys behave identically; the runner uses Key for
// result caching.
//
// The result is memoized until the next write. The first Key call counts as
// a mutation for concurrency purposes: key a config before sharing it across
// goroutines (the session executor does, at proposal time).
func (c *Config) Key() string {
	if c.memoOK {
		return c.memoKey
	}
	if c.n == 0 {
		c.memoOK = true
		return ""
	}
	c.memoKey = string(c.AppendKey(nil))
	c.memoOK = true
	return c.memoKey
}

// AppendKey appends the canonical key (see Key) to dst and returns the
// extended buffer — the allocation-free form for callers that reuse a
// scratch buffer across configurations.
func (c *Config) AppendKey(dst []byte) []byte {
	if c.n == 0 {
		return dst
	}
	first := true
	for _, id := range c.ids {
		f := c.reg.byID[id]
		v := c.vals[id]
		if v.Equal(f.Type, f.Default) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, f.Name...)
		dst = append(dst, '=')
		dst = appendValue(dst, f.Type, v)
	}
	return dst
}

// appendValue appends v rendered for type t (matching Value.String) to dst.
func appendValue(dst []byte, t Type, v Value) []byte {
	switch t {
	case Bool:
		if v.B {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case Int:
		return strconv.AppendInt(dst, v.I, 10)
	case Enum:
		return append(dst, v.S...)
	}
	return append(dst, '?')
}

// Diff returns, in sorted flag order, the names whose effective values
// differ between c and o. Both configs must share a registry.
func (c *Config) Diff(o *Config) []string {
	if c.reg != o.reg {
		panic("flags: Diff across registries")
	}
	var out []string
	for id, f := range c.reg.byID {
		if !c.GetID(ID(id)).Equal(f.Type, o.GetID(ID(id))) {
			out = append(out, f.Name)
		}
	}
	return out
}

// Validate checks every explicit assignment against its flag's domain.
// Structural validity only; semantic conflicts (e.g. two collectors
// selected) are the hierarchy's and the VM's business.
func (c *Config) Validate() error {
	if c.n == 0 {
		return nil
	}
	for _, id := range c.ids {
		if err := c.reg.byID[id].Validate(c.vals[id]); err != nil {
			return err
		}
	}
	return nil
}

// String renders the non-default assignments as a human-readable list.
func (c *Config) String() string {
	k := c.Key()
	if k == "" {
		return "<defaults>"
	}
	return k
}
