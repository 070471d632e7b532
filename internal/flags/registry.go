package flags

import (
	"fmt"
	"sort"
	"sync"
)

// ID is a dense, registry-assigned flag identifier: the index of the flag's
// name in the registry's sorted name order. IDs are the hot-path currency of
// the tuner — configurations locate their values by ID, and searchers hold
// ID lists, so the inner loop never hashes flag-name strings. IDs are only
// meaningful within the registry that assigned them.
type ID int32

// NoID is the ID of a name absent from the registry.
const NoID ID = -1

// BoolID and IntID are IDs of flags whose type was checked when the ID was
// resolved (Registry.MustBool, Registry.MustInt). Packages that read
// hard-coded flags resolve each name once, so a read is an array index
// with no name lookup and no type check.
type (
	BoolID ID
	IntID  ID
)

// Registry is an immutable catalog of flag definitions. NewRegistry returns
// the process's one standard HotSpot catalog; NewCustomRegistry builds
// others for tests.
type Registry struct {
	byName     map[string]*Flag
	names      []string // sorted, for deterministic iteration
	byID       []*Flag  // byID[i] is the flag named names[i]
	idOf       map[string]ID
	tunable    []string // sorted names of Tunable() flags, precomputed
	tunableIDs []ID     // their IDs, in the same (ID) order

	// scratch recycles Configs for AcquireConfig/ReleaseConfig: a parsed
	// Config grows its value arrays to the width of what it holds, which
	// is real garbage when a server parses one throwaway configuration
	// per request.
	scratch sync.Pool
}

// AcquireConfig returns an all-defaults Config over r, recycled from an
// internal pool when possible. Callers that parse one short-lived
// configuration per request (the evald measurement nodes) pair it with
// ReleaseConfig to keep the per-request allocation off the hot path.
func (r *Registry) AcquireConfig() *Config {
	if c, ok := r.scratch.Get().(*Config); ok {
		return c
	}
	return NewConfig(r)
}

// ReleaseConfig resets c and returns it to r's pool. The caller must not
// touch c afterwards. Configs bound to another registry are dropped
// rather than poisoning the pool; nil is a no-op.
func (r *Registry) ReleaseConfig(c *Config) {
	if c == nil || c.reg != r {
		return
	}
	c.Reset()
	r.scratch.Put(c)
}

// NewCustomRegistry builds a registry from an explicit flag list. Duplicate
// names and invalid definitions are rejected.
func NewCustomRegistry(defs []Flag) (*Registry, error) {
	r := &Registry{byName: make(map[string]*Flag, len(defs))}
	for i := range defs {
		f := defs[i]
		if f.Name == "" {
			return nil, fmt.Errorf("flags: definition %d has empty name", i)
		}
		if _, dup := r.byName[f.Name]; dup {
			return nil, fmt.Errorf("flags: duplicate flag %s", f.Name)
		}
		if f.Type == Int && f.Min > f.Max {
			return nil, fmt.Errorf("flags: %s has Min %d > Max %d", f.Name, f.Min, f.Max)
		}
		if f.Type == Enum && len(f.Choices) == 0 {
			return nil, fmt.Errorf("flags: enum %s has no choices", f.Name)
		}
		// An enum value is a choice index, rendered through Choices: two
		// equal names would render two distinct values identically.
		for j, c := range f.Choices {
			for _, d := range f.Choices[:j] {
				if c == d {
					return nil, fmt.Errorf("flags: enum %s repeats choice %q", f.Name, c)
				}
			}
		}
		if err := f.Validate(f.Default); err != nil {
			return nil, fmt.Errorf("flags: %s default out of domain: %v", f.Name, err)
		}
		cp := f
		r.byName[f.Name] = &cp
		r.names = append(r.names, f.Name)
	}
	sort.Strings(r.names)
	r.byID = make([]*Flag, len(r.names))
	r.idOf = make(map[string]ID, len(r.names))
	for i, n := range r.names {
		r.byID[i] = r.byName[n]
		r.idOf[n] = ID(i)
		if r.byID[i].Tunable() {
			r.tunable = append(r.tunable, n)
			r.tunableIDs = append(r.tunableIDs, ID(i))
		}
	}
	return r, nil
}

// NewRegistry returns the standard HotSpot flag catalog: every modeled
// tuning knob plus the long tail of observability/verification flags, 600+
// definitions in total. The catalog is built once per process, on the
// first call, and every call returns that one immutable instance, so
// configurations from any two callers can be crossed, diffed and recycled
// together. The *Flag definitions and name slices it hands out are shared
// by the whole process: callers must not modify them. The catalog is
// static, so a build failure is a programming error and panics.
func NewRegistry() *Registry { return standard() }

var standard = sync.OnceValue(func() *Registry {
	r, err := NewCustomRegistry(append(catalog(), inertCatalog()...))
	if err != nil {
		panic(err)
	}
	return r
})

// MustBool resolves the hard-coded name of a Bool flag. It panics if the
// name is unknown or the flag is not a Bool: resolved at package
// initialization, a misspelled name stops the program before any read.
func (r *Registry) MustBool(name string) BoolID {
	return BoolID(r.mustResolve(name, Bool))
}

// MustInt resolves the hard-coded name of an Int flag; see MustBool.
func (r *Registry) MustInt(name string) IntID {
	return IntID(r.mustResolve(name, Int))
}

func (r *Registry) mustResolve(name string, t Type) ID {
	id := r.ID(name)
	if id == NoID {
		panic(fmt.Sprintf("flags: unknown flag %s", name))
	}
	if f := r.byID[id]; f.Type != t {
		panic(fmt.Sprintf("flags: %s is %v, not %v", name, f.Type, t))
	}
	return id
}

// Lookup returns the definition of name, or nil if unknown.
func (r *Registry) Lookup(name string) *Flag {
	return r.byName[name]
}

// ID returns the dense identifier of name, or NoID if unknown.
func (r *Registry) ID(name string) ID {
	if id, ok := r.idOf[name]; ok {
		return id
	}
	return NoID
}

// FlagByID returns the definition with the given ID. It panics on IDs the
// registry never assigned, which are programming errors.
func (r *Registry) FlagByID(id ID) *Flag {
	return r.byID[id]
}

// Names returns all flag names in sorted order. The returned slice is shared;
// callers must not modify it.
func (r *Registry) Names() []string {
	return r.names
}

// Len returns the number of flags in the registry. IDs range over [0, Len).
func (r *Registry) Len() int {
	return len(r.names)
}

// ByCategory returns the names of all flags in the given category, sorted.
func (r *Registry) ByCategory(c Category) []string {
	var out []string
	for _, n := range r.names {
		if r.byName[n].Category == c {
			out = append(out, n)
		}
	}
	return out
}

// TunableNames returns the names of all tunable (Product/Experimental)
// flags, sorted. The returned slice is shared; callers must not modify it.
func (r *Registry) TunableNames() []string {
	return r.tunable
}

// TunableIDs returns the IDs of all tunable flags in ID (= sorted-name)
// order: TunableIDs()[i] names TunableNames()[i]. The returned slice is
// shared; callers must not modify it.
func (r *Registry) TunableIDs() []ID {
	return r.tunableIDs
}

// DefaultConfig returns a configuration with every flag explicitly set to
// its HotSpot default.
func (r *Registry) DefaultConfig() *Config {
	c := NewConfig(r)
	for id, f := range r.byID {
		c.putID(ID(id), f.Default)
	}
	return c
}
