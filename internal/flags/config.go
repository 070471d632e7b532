package flags

import (
	"fmt"
	"math/bits"
	"slices"
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

// Config is a concrete assignment of values to flags in one registry.
// Only explicit assignments are stored: their IDs in ascending (= sorted
// name) order and their values alongside, so cloning, canonical keys,
// validation, and command-line rendering are walks over what was set, and
// a configuration's size grows with its explicit flags, not with the
// registry. A per-64-ID bitmap with running counts finds any flag's value
// in constant time. Flags not explicitly set take their registry defaults;
// Get resolves that transparently. Config is not safe for concurrent
// mutation; the tuner clones before handing configs to worker goroutines.
type Config struct {
	reg     *Registry
	ids     []ID        // sorted IDs of explicit assignments
	vals    []Value     // vals[i] is the value assigned to ids[i]
	index   []wordIndex // index[w] covers IDs [64w, 64w+64)
	memoKey string      // Key() memo, valid when memoOK; any write clears it
	memoOK  bool
}

// wordIndex locates the explicit IDs among 64 consecutive ones: bits marks
// them, and rank counts the explicit IDs below the word, so an explicit
// ID's value is vals[rank + the number of marked bits below its own]. rank
// is kept current up to the word of the last explicit ID; words past it
// hold no bits and are brought up to date when an ID lands in them.
type wordIndex struct {
	bits uint64
	rank int32
}

// NewConfig returns an empty configuration (all defaults) over reg.
func NewConfig(reg *Registry) *Config {
	return &Config{reg: reg, index: make([]wordIndex, (reg.Len()+63)/64)}
}

// Registry returns the registry this configuration is bound to.
func (c *Config) Registry() *Registry { return c.reg }

// Reset returns c to the all-defaults state (no explicit assignments),
// keeping its storage so high-rate parsing paths can recycle one Config
// instead of re-allocating per use.
func (c *Config) Reset() {
	if n := len(c.ids); n > 0 {
		clear(c.index[:c.ids[n-1]/64+1])
	}
	c.ids = c.ids[:0]
	c.vals = c.vals[:0]
	c.memoOK = false
	c.memoKey = ""
}

// locate returns the word and bit of id, and where its value sits in vals
// if it is explicit. The position is meaningful only for explicit IDs and
// IDs in words up to the last explicit one.
func (c *Config) locate(id ID) (w *wordIndex, bit uint64, pos int) {
	w, bit = &c.index[id/64], uint64(1)<<(id%64)
	return w, bit, int(w.rank) + bits.OnesCount64(w.bits&(bit-1))
}

// putID records an explicit assignment without validating it.
func (c *Config) putID(id ID, v Value) {
	c.memoOK = false
	c.memoKey = ""
	n := len(c.ids)
	if n == 0 || c.ids[n-1] < id {
		// Past the last explicit ID: every renderer and the crossover
		// assign in ID order, so this append is the common case. Words
		// skipped since the last explicit ID start counting at n.
		first := ID(0)
		if n > 0 {
			first = c.ids[n-1]/64 + 1
		}
		for w := first; w <= id/64; w++ {
			c.index[w].rank = int32(n)
		}
		c.index[id/64].bits |= uint64(1) << (id % 64)
		c.ids = append(c.ids, id)
		c.vals = append(c.vals, v)
		return
	}
	w, bit, pos := c.locate(id)
	if w.bits&bit != 0 {
		c.vals[pos] = v
		return
	}
	w.bits |= bit
	c.ids = slices.Insert(c.ids, pos, id)
	c.vals = slices.Insert(c.vals, pos, v)
	for k := id/64 + 1; k <= c.ids[n]/64; k++ {
		c.index[k].rank++
	}
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
	c.SetBoolAt(c.reg.MustBool(name), b)
}

// SetBoolAt assigns the boolean flag id, resolved once by MustBool.
func (c *Config) SetBoolAt(id BoolID, b bool) {
	c.putID(ID(id), BoolValue(b))
}

// SetInt assigns an integer flag, clamping into the flag's domain.
func (c *Config) SetInt(name string, i int64) {
	id := c.reg.mustResolve(name, Int)
	c.putID(id, c.reg.byID[id].Clamp(IntValue(i)))
}

// SetEnum assigns an enum flag by choice name. It panics on an unknown
// choice.
func (c *Config) SetEnum(name, choice string) {
	id := c.reg.mustResolve(name, Enum)
	v, err := c.reg.byID[id].ChoiceValue(choice)
	if err != nil {
		panic(err.Error())
	}
	c.putID(id, v)
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
	if w, bit, pos := c.locate(id); w.bits&bit != 0 {
		return c.vals[pos]
	}
	return c.reg.byID[id].Default
}

// seek returns the effective value of id like GetID, advancing the cursor
// *i through c's explicit list. IDs asked for in ascending order, as
// ActiveFlags and TunableIDs list them, cost one walk of the list in all;
// an ID the cursor has already passed falls back to GetID.
func (c *Config) seek(i *int, id ID) Value {
	for *i < len(c.ids) && c.ids[*i] < id {
		*i++
	}
	switch {
	case *i < len(c.ids) && c.ids[*i] == id:
		return c.vals[*i]
	case *i > 0 && c.ids[*i-1] >= id:
		return c.GetID(id)
	}
	return c.reg.byID[id].Default
}

// Bool returns the effective boolean value of name.
// It panics on unknown names or type mismatches.
func (c *Config) Bool(name string) bool {
	return c.BoolAt(c.reg.MustBool(name))
}

// BoolAt returns the effective value of the boolean flag id, resolved once
// by MustBool.
func (c *Config) BoolAt(id BoolID) bool {
	return c.GetID(ID(id)).B
}

// Int returns the effective integer value of name.
// It panics on unknown names or type mismatches.
func (c *Config) Int(name string) int64 {
	return c.IntAt(c.reg.MustInt(name))
}

// IntAt returns the effective value of the integer flag id, resolved once
// by MustInt.
func (c *Config) IntAt(id IntID) int64 {
	return c.GetID(ID(id)).I
}

// Enum returns the name of the effective choice of the enum flag name.
// It panics on unknown names or type mismatches.
func (c *Config) Enum(name string) string {
	id := c.reg.mustResolve(name, Enum)
	return c.reg.byID[id].ValueString(c.GetID(id))
}

// IsExplicit reports whether name was explicitly assigned (as opposed to
// inheriting its default).
func (c *Config) IsExplicit(name string) bool {
	id := c.reg.ID(name)
	return id != NoID && c.IsExplicitID(id)
}

// IsExplicitID reports whether the flag id was explicitly assigned.
func (c *Config) IsExplicitID(id ID) bool {
	return c.index[id/64].bits&(uint64(1)<<(id%64)) != 0
}

// Unset removes an explicit assignment, reverting name to its default.
func (c *Config) Unset(name string) {
	if id := c.reg.ID(name); id != NoID {
		c.UnsetID(id)
	}
}

// UnsetID removes the explicit assignment of the flag id, if any.
func (c *Config) UnsetID(id ID) {
	w, bit, pos := c.locate(id)
	if w.bits&bit == 0 {
		return
	}
	last := c.ids[len(c.ids)-1] / 64
	w.bits &^= bit
	c.ids = slices.Delete(c.ids, pos, pos+1)
	c.vals = slices.Delete(c.vals, pos, pos+1)
	for k := id/64 + 1; k <= last; k++ {
		c.index[k].rank--
	}
	c.memoOK = false
	c.memoKey = ""
}

// ExplicitNames returns the sorted names of explicitly assigned flags.
func (c *Config) ExplicitNames() []string {
	out := make([]string, 0, len(c.ids))
	for _, id := range c.ids {
		out = append(out, c.reg.names[id])
	}
	return out
}

// ExplicitIDs returns the IDs of explicitly assigned flags in ID (sorted
// name) order. The slice is the config's own: callers must not modify it,
// and it is valid only until the config's next write.
func (c *Config) ExplicitIDs() []ID {
	return c.ids
}

// EachExplicit calls fn for every explicitly assigned flag in ID (sorted
// name) order, without allocating.
func (c *Config) EachExplicit(fn func(f *Flag, v Value)) {
	for i, id := range c.ids {
		fn(c.reg.byID[id], c.vals[i])
	}
}

// Clone returns an independent copy of the configuration.
func (c *Config) Clone() *Config {
	return &Config{
		reg:     c.reg,
		ids:     slices.Clone(c.ids),
		vals:    slices.Clone(c.vals),
		index:   slices.Clone(c.index),
		memoKey: c.memoKey,
		memoOK:  c.memoOK,
	}
}

// Key returns the canonical string identifying c: its canonical form as
// "name=value" pairs, sorted by name and joined by commas. The canonical
// form is every assignment off its flag's default, plus the explicit
// assignments of flags whose explicitness matters (Flag.ExplicitMatters)
// even at the default. It is everything the VM can tell apart, so two
// configs with equal Keys behave identically: the runner caches results
// by Key, and ExplicitArgs renders the same form as arguments.
//
// The result is memoized until the next write. The first Key call counts as
// a mutation for concurrency purposes: key a config before sharing it across
// goroutines (the session executor does, at proposal time).
func (c *Config) Key() string {
	if c.memoOK {
		return c.memoKey
	}
	if len(c.ids) == 0 {
		c.memoOK = true
		return ""
	}
	// A proposal's key is a few hundred bytes: render it on the stack and
	// allocate only the string.
	var buf [512]byte
	c.memoKey = string(c.AppendKey(buf[:0]))
	c.memoOK = true
	return c.memoKey
}

// AppendKey appends the canonical key (see Key) to dst and returns the
// extended buffer — the allocation-free form for callers that reuse a
// scratch buffer across configurations.
func (c *Config) AppendKey(dst []byte) []byte {
	first := true
	for i, id := range c.ids {
		f := c.reg.byID[id]
		v := c.vals[i]
		if !f.canonical(v) {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, f.Name...)
		dst = append(dst, '=')
		dst = f.appendValue(dst, v)
	}
	return dst
}

// Canonical returns a copy of c that holds only its canonical form (see
// Key): the configuration ParseArgs rebuilds from c.ExplicitArgs(), with
// the same Key and an explicit set that round-trips.
func (c *Config) Canonical() *Config {
	out := NewConfig(c.reg)
	for i, id := range c.ids {
		if c.reg.byID[id].canonical(c.vals[i]) {
			out.putID(id, c.vals[i])
		}
	}
	return out
}

// AtDefaults reports whether every flag of c takes its default value,
// explicitly or not: no assignment is off its default. This, not an
// empty Key, is the test for "this is the defaults configuration": the
// canonical form keeps an explicit default whose explicitness matters, so
// an explicit -XX:+UseParallelGC alone keys as "UseParallelGC=true" and
// still selects what the defaults select.
func (c *Config) AtDefaults() bool {
	for i, id := range c.ids {
		if f := c.reg.byID[id]; !c.vals[i].Equal(f.Type, f.Default) {
			return false
		}
	}
	return true
}

// Diff returns, in sorted flag order, the names whose effective values
// differ between c and o. Both configs must share a registry. Only flags
// explicit in either can differ, so it merges the two explicit lists.
func (c *Config) Diff(o *Config) []string {
	if c.reg != o.reg {
		panic("flags: Diff across registries")
	}
	var out []string
	a, b := c.ids, o.ids
	for len(a) > 0 || len(b) > 0 {
		var id ID
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			id, a = a[0], a[1:]
		case len(a) == 0 || b[0] < a[0]:
			id, b = b[0], b[1:]
		default:
			id, a, b = a[0], a[1:], b[1:]
		}
		if f := c.reg.byID[id]; !c.GetID(id).Equal(f.Type, o.GetID(id)) {
			out = append(out, f.Name)
		}
	}
	return out
}

// Validate checks every explicit assignment against its flag's domain.
// Structural validity only; semantic conflicts (e.g. two collectors
// selected) are the hierarchy's and the VM's business.
func (c *Config) Validate() error {
	for i, id := range c.ids {
		if err := c.reg.byID[id].Validate(c.vals[i]); err != nil {
			return err
		}
	}
	return nil
}

// String renders the canonical form (see Key) as a human-readable list.
func (c *Config) String() string {
	k := c.Key()
	if k == "" {
		return "<defaults>"
	}
	return k
}
