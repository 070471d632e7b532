// Package workload defines the benchmark programs the auto-tuner is
// evaluated on. A Profile is a compact behavioural description of a Java
// program — how much it computes, allocates, synchronizes, and how much of
// its run is warm-up — from which internal/jvmsim derives execution time
// under any flag configuration.
//
// Two suites mirror the paper's evaluation: the 16 SPECjvm2008 *startup*
// programs (short, fresh-JVM runs dominated by JIT warm-up behaviour) and 13
// DaCapo programs (iterating workloads dominated by heap and GC behaviour).
// The profiles are synthetic stand-ins calibrated to reproduce the *shape*
// of the paper's results, not measurements of the real programs; see
// DESIGN.md for the substitution argument.
package workload

import (
	"fmt"
	"sort"
	"sync"
)

// Profile describes one benchmark program's behaviour.
type Profile struct {
	// Name is the benchmark's identifier, e.g. "startup.compiler.compiler".
	Name string
	// Suite is "specjvm2008", "dacapo", or "custom".
	Suite string
	// Description says what the (real) program does.
	Description string

	// BaseSeconds is the pure application compute time of one run at full
	// compiled (C2) speed with reference inlining — the floor no flag
	// setting can beat.
	BaseSeconds float64
	// StartupFraction is the share of the run that happens before the
	// process is warm; it scales warm-up-sensitive effects such as
	// BiasedLockingStartupDelay and heap pre-touching.
	StartupFraction float64

	// WarmupWork is the seconds of hot-code work the default configuration
	// (CompileThreshold=10000, no tiering) executes in the interpreter
	// before compilation kicks in. The JIT model scales it with the
	// configured threshold.
	WarmupWork float64
	// HotMethods is the size of the hot compile set.
	HotMethods int
	// CodeKBPerMethod is the average compiled size of a hot method.
	CodeKBPerMethod float64
	// CallIntensity (0..1) is how call-bound the program is; it scales the
	// benefit and harm of inlining decisions.
	CallIntensity float64
	// LoopIntensity (0..1) is how loop-bound the program is; it scales
	// vectorization and loop-optimization effects.
	LoopIntensity float64
	// EscapeFrac is the fraction of allocation that escape analysis can
	// eliminate.
	EscapeFrac float64

	// AllocRateMBps is the allocation rate while the program computes.
	AllocRateMBps float64
	// LiveSetMB is the steady live data the old generation must hold.
	LiveSetMB float64
	// ClassMetaMB is the class metadata footprint the permanent generation
	// must hold (JDK-7 era); programs with large framework stacks crowd the
	// default 85 MB MaxPermSize.
	ClassMetaMB float64
	// ShortLivedFrac is the fraction of allocated bytes that die young
	// given enough eden residency.
	ShortLivedFrac float64
	// MidLivedFrac is the fraction that die after surviving a few
	// collections (candidates for survivor-space aging).
	MidLivedFrac float64
	// MidLifeRounds is the mean number of scavenges a mid-lived object
	// survives; it interacts with MaxTenuringThreshold.
	MidLifeRounds float64
	// EdenHalfLifeMB is the eden residency (in MB of allocation) an object
	// needs for the short-lived fraction to actually die before a scavenge.
	// Small edens collect objects before they can die.
	EdenHalfLifeMB float64
	// LargeObjectFrac is the fraction of allocation in objects big enough
	// to matter for pretenuring and G1 humongous regions.
	LargeObjectFrac float64

	// PointerIntensity (0..1) scales pointer-chasing effects (compressed
	// oops, card marking, G1 remembered sets).
	PointerIntensity float64
	// RefIntensity (0..1) scales soft/weak reference processing cost.
	RefIntensity float64
	// StringIntensity (0..1) scales string-related optimizations.
	StringIntensity float64

	// SyncIntensity (0..1) is how much locking the program does;
	// LockContention (0..1) is how contended those locks are.
	SyncIntensity  float64
	LockContention float64
	// AppThreads is the number of application threads doing the work.
	AppThreads int
	// ExplicitGCCalls is the number of System.gc() calls per run.
	ExplicitGCCalls int
}

// Validate checks that the profile is internally consistent.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile has no name")
	case p.BaseSeconds <= 0:
		return fmt.Errorf("workload %s: BaseSeconds must be positive", p.Name)
	case p.WarmupWork < 0:
		return fmt.Errorf("workload %s: negative WarmupWork", p.Name)
	case p.HotMethods <= 0:
		return fmt.Errorf("workload %s: HotMethods must be positive", p.Name)
	case p.AllocRateMBps < 0:
		return fmt.Errorf("workload %s: negative AllocRateMBps", p.Name)
	case p.LiveSetMB < 0:
		return fmt.Errorf("workload %s: negative LiveSetMB", p.Name)
	case p.ClassMetaMB < 0:
		return fmt.Errorf("workload %s: negative ClassMetaMB", p.Name)
	case p.ShortLivedFrac < 0 || p.MidLivedFrac < 0 || p.ShortLivedFrac+p.MidLivedFrac > 1:
		return fmt.Errorf("workload %s: lifetime fractions must be non-negative and sum to at most 1", p.Name)
	case p.StartupFraction < 0 || p.StartupFraction > 1:
		return fmt.Errorf("workload %s: StartupFraction outside [0,1]", p.Name)
	case p.AppThreads <= 0:
		return fmt.Errorf("workload %s: AppThreads must be positive", p.Name)
	case p.EdenHalfLifeMB <= 0:
		return fmt.Errorf("workload %s: EdenHalfLifeMB must be positive", p.Name)
	case p.MidLifeRounds <= 0:
		return fmt.Errorf("workload %s: MidLifeRounds must be positive", p.Name)
	}
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"CallIntensity", p.CallIntensity}, {"LoopIntensity", p.LoopIntensity},
		{"EscapeFrac", p.EscapeFrac}, {"LargeObjectFrac", p.LargeObjectFrac},
		{"PointerIntensity", p.PointerIntensity}, {"RefIntensity", p.RefIntensity},
		{"StringIntensity", p.StringIntensity}, {"SyncIntensity", p.SyncIntensity},
		{"LockContention", p.LockContention},
	} {
		if v.val < 0 || v.val > 1 {
			return fmt.Errorf("workload %s: %s outside [0,1]", p.Name, v.name)
		}
	}
	return nil
}

// Clone returns an independent copy of the profile. Profile holds only
// value fields (strings, numbers), so a struct copy is a deep copy; the
// reflection guard in workload_test.go fails the build's tests if a
// reference-typed field (slice, map, pointer) is ever added without
// updating this method to copy it explicitly.
func (p *Profile) Clone() *Profile {
	c := *p
	return &c
}

// LongLivedFrac is the fraction of allocation that lives until (at least)
// the program's steady state and must be promoted eventually.
func (p *Profile) LongLivedFrac() float64 {
	return 1 - p.ShortLivedFrac - p.MidLivedFrac
}

// catalog is every built-in profile, SPECjvm2008 first, then DaCapo, built
// once per process. ByName and All hand out copies, so no caller can
// change it.
var catalog = sync.OnceValue(func() []*Profile {
	return append(SPECjvm2008(), DaCapo()...)
})

// ByName returns a copy of the named profile from the built-in suites.
func ByName(name string) (*Profile, bool) {
	for _, p := range catalog() {
		if p.Name == name {
			return p.Clone(), true
		}
	}
	return nil, false
}

// All returns copies of every built-in profile, SPECjvm2008 first, then
// DaCapo, each suite in its canonical order.
func All() []*Profile {
	all := catalog()
	copies := make([]Profile, len(all))
	out := make([]*Profile, len(all))
	for i, p := range all {
		copies[i] = *p
		out[i] = &copies[i]
	}
	return out
}

// Names returns the sorted names of all built-in profiles.
func Names() []string {
	all := catalog()
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.Name
	}
	sort.Strings(out)
	return out
}
