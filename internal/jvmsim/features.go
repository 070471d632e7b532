package jvmsim

import (
	"repro/internal/flags"
	"repro/internal/workload"
)

// featureEffects aggregates the flag effects that act multiplicatively on
// application speed, allocation rate, and code size, independent of the GC
// and JIT phase models.
type featureEffects struct {
	// compiledSpeed scales C2-compiled execution speed; 1.0 is the
	// reference (default flags).
	compiledSpeed float64
	// interpSpeed scales interpreter speed.
	interpSpeed float64
	// allocScale scales the workload's allocation rate.
	allocScale float64
	// codeExpansion scales emitted code size (inlining and unrolling bloat).
	codeExpansion float64
	// overhead multiplies total wall time for engaged observability flags.
	overhead float64
	// startupExtra is added to startup cost (pre-touch, tiny code cache).
	startupExtra float64
	// appPenalty multiplies app compute time (slow allocation paths, etc.).
	appPenalty float64
}

// computeFeatures evaluates all non-GC, non-phase flag effects.
func computeFeatures(c *flags.Config, p *workload.Profile, m Machine) featureEffects {
	fx := featureEffects{
		compiledSpeed: 1, interpSpeed: 1, allocScale: 1,
		codeExpansion: 1, overhead: 1, appPenalty: 1,
	}

	// --- Inlining budgets -------------------------------------------------
	call := p.CallIntensity
	szScore := 0.5*clamp(float64(c.IntAt(maxInlineSize))/35, 0, 3) +
		0.5*clamp(float64(c.IntAt(freqInlineSize))/325, 0, 3)
	if szScore < 1 {
		// Starving the inliner hurts call-bound code badly.
		fx.compiledSpeed *= 1 - call*0.35*(1-szScore)
	} else {
		// More generous budgets help, with fast diminishing returns.
		fx.compiledSpeed *= 1 + call*0.05*clamp(szScore-1, 0, 0.8)
		fx.codeExpansion *= 1 + 0.30*clamp(szScore-1, 0, 2)
	}
	if lvl := c.IntAt(maxInlineLevel); lvl < 6 {
		fx.compiledSpeed *= 1 - call*0.06*float64(6-lvl)/5
	}
	if c.IntAt(maxRecursiveInlineLevel) == 0 {
		fx.compiledSpeed *= 1 - call*0.01
	}
	if isc := float64(c.IntAt(inlineSmallCode)); isc < 1000 {
		fx.compiledSpeed *= 1 - call*0.04*(1000-isc)/1000
	}
	if !c.BoolAt(clipInlining) {
		fx.compiledSpeed *= 1 + call*0.005
		fx.codeExpansion *= 1.15
	}
	if !c.BoolAt(inlineSynchronizedMethods) {
		fx.compiledSpeed *= 1 - call*p.SyncIntensity*0.02
	}
	if c.BoolAt(useFastAccessorMethods) {
		fx.interpSpeed *= 1 + call*0.06
	}

	// --- Loop optimizations ----------------------------------------------
	loop := p.LoopIntensity
	if !c.BoolAt(useSuperWord) {
		fx.compiledSpeed *= 1 - loop*0.07
	}
	if !c.BoolAt(useLoopPredicate) {
		fx.compiledSpeed *= 1 - loop*0.02
	}
	if !c.BoolAt(rangeCheckElimination) {
		fx.compiledSpeed *= 1 - loop*0.04
	}
	if u := float64(c.IntAt(loopUnrollLimit)); u < 50 {
		fx.compiledSpeed *= 1 - loop*0.025*(50-u)/50
	} else if u > 120 {
		fx.compiledSpeed *= 1 - loop*0.012*(u-120)/80
		fx.codeExpansion *= 1 + (u-120)/800
	}

	// --- Allocation optimizations ------------------------------------------
	if c.BoolAt(doEscapeAnalysis) {
		if !c.BoolAt(eliminateAllocations) {
			fx.allocScale *= 1 + p.EscapeFrac*0.25
			fx.compiledSpeed *= 1 - p.EscapeFrac*0.02
		}
	} else {
		fx.allocScale *= 1 + p.EscapeFrac*0.5
		fx.compiledSpeed *= 1 - p.EscapeFrac*0.06
	}
	if !c.BoolAt(eliminateLocks) {
		fx.compiledSpeed *= 1 - p.SyncIntensity*(1-p.LockContention)*0.02
	}
	if !c.BoolAt(optimizeStringConcat) {
		fx.compiledSpeed *= 1 - p.StringIntensity*0.03
	}
	if c.BoolAt(useStringCache) {
		fx.compiledSpeed *= 1 + p.StringIntensity*0.01
	}
	if c.BoolAt(compactStrings) {
		fx.compiledSpeed *= 1 + p.StringIntensity*0.015
		fx.allocScale *= 1 - p.StringIntensity*0.08
	}
	if c.BoolAt(aggressiveOpts) {
		fx.compiledSpeed *= 1.012
	}

	// --- Memory system ------------------------------------------------------
	if !c.BoolAt(useCompressedOops) {
		fx.compiledSpeed *= 1 - p.PointerIntensity*0.05
		fx.allocScale *= 1.12
	}
	if c.BoolAt(useLargePages) {
		fx.compiledSpeed *= 1 + 0.015*clamp(p.LiveSetMB/512, 0, 1)
	}
	if c.BoolAt(useNUMA) && p.AppThreads >= 4 {
		fx.compiledSpeed *= 1.01
	}
	if c.BoolAt(alwaysPreTouch) {
		fx.startupExtra += float64(c.IntAt(maxHeapSize)>>20) / 8000
		fx.compiledSpeed *= 1.003
	}
	if !c.BoolAt(useTLAB) {
		fx.appPenalty *= 1 + 0.05*clamp(p.AllocRateMBps/100, 0.2, 2)
	} else if sz := c.IntAt(tlabSize); sz > 0 && sz < 64<<10 && p.AppThreads > 2 {
		fx.appPenalty *= 1.012
	}

	// --- Synchronization ------------------------------------------------------
	sync, cont := p.SyncIntensity, p.LockContention
	if c.BoolAt(useBiasedLocking) {
		benefit := sync * (1 - cont) * 0.04
		cost := sync * cont * 0.035
		delaySec := float64(c.IntAt(biasedLockingStartupDelay)) / 1000
		coverage := clamp(1-delaySec/p.BaseSeconds, 0, 1)
		fx.compiledSpeed *= 1 + coverage*(benefit-cost)
	}
	if c.BoolAt(useSpinLocks) {
		fx.compiledSpeed *= 1 + sync*cont*0.02 - sync*(1-cont)*0.005
	}
	if c.BoolAt(useCondCardMark) && p.AppThreads > 1 {
		fx.compiledSpeed *= 1 + sync*0.01*clamp(float64(p.AppThreads)/float64(m.Cores), 0, 1)
	}

	// --- Runtime services ------------------------------------------------------
	if !c.BoolAt(usePerfData) {
		fx.compiledSpeed *= 1.005
	}
	if c.BoolAt(reduceSignalUsage) {
		fx.compiledSpeed *= 1.002
	}
	if !c.BoolAt(classUnloading) {
		fx.compiledSpeed *= 1.002
	}

	// --- Engaged observability flags ---------------------------------------
	// Every inert boolean switched on charges its overhead.
	c.EachExplicit(func(f *flags.Flag, v flags.Value) {
		if f.Inert && f.OverheadPct > 0 && f.Type == flags.Bool && v.B {
			fx.overhead *= 1 + f.OverheadPct
		}
	})
	return fx
}
