package jvmsim

import (
	"repro/internal/flags"
	"repro/internal/hierarchy"
	"repro/internal/workload"
)

// gcOutcome is the GC phase model's contribution to a run.
type gcOutcome struct {
	stopSeconds float64 // sum of stop-the-world pauses
	appSlowdown float64 // fractional compute slowdown (concurrent GC, barriers)
	startup     float64 // heap growth and sizing work at startup
	minorGCs    float64
	fullGCs     float64
	maxPause    float64
	youngMB     float64
	oldMB       float64
	oom         bool
	oomMessage  string
}

// heapGeometry resolves the flag-driven generation sizes.
type heapGeometry struct {
	heapMB float64
	young  float64
	eden   float64
	surv   float64 // one survivor space
	old    float64
}

func resolveGeometry(c *flags.Config, p *workload.Profile, col hierarchy.Collector, m Machine) heapGeometry {
	g := heapGeometry{heapMB: float64(c.IntAt(maxHeapSize) >> 20)}
	if col == hierarchy.G1 {
		// G1 sizes its young set of regions against the pause goal.
		pauseMs := float64(c.IntAt(maxGCPauseMillis))
		g.young = clamp(g.heapMB*(0.05+pauseMs/200*0.15), g.heapMB*0.05, g.heapMB*0.60)
		g.eden = g.young * 0.9
		g.surv = g.young * 0.05
		g.old = g.heapMB - g.young
		return g
	}
	if ms := c.IntAt(maxNewSize); ms > 0 {
		g.young = clamp(float64(ms>>20), 1, g.heapMB*0.8)
	} else {
		g.young = g.heapMB / float64(c.IntAt(newRatio)+1)
	}
	sr := float64(c.IntAt(survivorRatio))
	g.eden = g.young * sr / (sr + 2)
	g.surv = g.young / (sr + 2)
	g.old = g.heapMB - g.young

	// The parallel collector's ergonomics resize the young generation
	// online unless explicit sizes pin it. Model as a half-way pull toward
	// a sensible size, damping (not erasing) manual young-gen tuning.
	if col == hierarchy.Parallel && c.BoolAt(useAdaptiveSizePolicy) &&
		c.IntAt(newSize) == 0 && c.IntAt(maxNewSize) == 0 {
		allocRate := p.AllocRateMBps
		goodEden := clamp(2.0*allocRate, 32, g.heapMB*0.5)
		g.eden = 0.5*g.eden + 0.5*goodEden
		g.young = g.eden * (sr + 2) / sr
		g.old = g.heapMB - g.young
	}
	return g
}

// computeGC models collection cost for the configured collector.
// appSeconds is the compute time during which allocation happens.
func computeGC(c *flags.Config, p *workload.Profile, col hierarchy.Collector,
	m Machine, appSeconds, allocScale float64) gcOutcome {

	g := resolveGeometry(c, p, col, m)
	out := gcOutcome{youngMB: g.young, oldMB: g.old}

	// Old generation capacity after collector-specific deductions.
	oldCap := g.old
	switch col {
	case hierarchy.CMS:
		// CMS never compacts during concurrent cycles; fragmentation taxes
		// the free lists.
		frag := 0.88
		if n := c.IntAt(cmsFullGCsBeforeCompaction); n > 0 {
			frag *= pow(0.985, float64(n))
		}
		oldCap *= frag
	case hierarchy.G1:
		oldCap *= 1 - float64(c.IntAt(g1ReservePercent))/100
		oldCap *= 1 - float64(c.IntAt(g1HeapWastePercent))/200
		// Humongous objects fragment small-region heaps.
		region := g1RegionMB(c, g.heapMB)
		if p.LargeObjectFrac > 0 && region < 4 {
			oldCap *= 1 - p.LargeObjectFrac*0.5*(4-region)/4
		}
	}
	if oldCap < p.LiveSetMB*1.05 {
		out.oom = true
		out.oomMessage = "java.lang.OutOfMemoryError: Java heap space"
		return out
	}

	// Permanent generation (JDK-7 era): class metadata must fit, and
	// crowding it triggers class-unloading full collections.
	maxPermMB := float64(c.IntAt(maxPermSize) >> 20)
	if p.ClassMetaMB > maxPermMB*0.98 {
		out.oom = true
		out.oomMessage = "java.lang.OutOfMemoryError: PermGen space"
		return out
	}
	permFulls := 0.0
	if occ := p.ClassMetaMB / maxPermMB; occ > 0.8 {
		permFulls = (occ - 0.8) * 60
		if !c.BoolAt(classUnloading) {
			// Without unloading the only relief is a full GC that frees
			// nothing; the VM keeps retrying.
			permFulls *= 2.5
		}
	}
	if permMB := float64(c.IntAt(permSize) >> 20); permMB < p.ClassMetaMB {
		out.startup += 0.02 * log2(p.ClassMetaMB/permMB)
	}

	// Allocation stream.
	alloc := p.AllocRateMBps * allocScale * appSeconds
	if alloc <= 0 {
		return out
	}

	// Pretenuring diverts large objects straight to the old generation.
	largeDiverted := 0.0
	if ptt := c.IntAt(pretenureSizeThreshold); ptt > 0 && col != hierarchy.G1 {
		largeDiverted = p.LargeObjectFrac * 0.8
	}
	youngAlloc := alloc * (1 - largeDiverted)

	// Scavenge accounting.
	effShort := p.ShortLivedFrac * (1 - expDecay(g.eden/p.EdenHalfLifeMB))
	survivalFrac := clamp(1-effShort, 0.01, 1)
	minorCount := youngAlloc / g.eden
	survivedPerMinor := g.eden * survivalFrac

	mtt := float64(c.IntAt(maxTenuringThreshold))
	tau := p.MidLifeRounds

	// Survivor space as an aging buffer. Mid-lived objects need to sit in a
	// survivor space for ~tau scavenges to die there; the steady-state
	// stock that requires is edenInflow × residency. If the survivor space
	// cannot hold the stock, the excess inflow promotes prematurely — the
	// classic undersized-survivor failure mode that SurvivorRatio,
	// TargetSurvivorRatio and MaxTenuringThreshold exist to fix.
	survCap := g.surv * float64(c.IntAt(targetSurvivorRatio)) / 100
	if col == hierarchy.G1 {
		// G1 takes survivor regions from the free set as needed.
		survCap = g.young * 0.3
	}
	undeadShort := p.ShortLivedFrac - effShort
	residency := clamp(mtt, 0, 1.5*tau)
	stock := g.eden*p.MidLivedFrac*residency*0.5 + g.eden*undeadShort*0.5
	fitFrac := 1.0
	if stock > 0 {
		fitFrac = clamp(survCap/stock, 0, 1)
	}
	// Who gets promoted per scavenge: long-lived always (eventually);
	// mid-lived if tenuring is too shallow or the survivor space spills;
	// not-yet-dead short-lived likewise (they only need one round).
	promotedFrac := p.LongLivedFrac() +
		p.MidLivedFrac*(fitFrac*expDecay(mtt/tau)+(1-fitFrac)) +
		undeadShort*(fitFrac*expDecay(mtt/0.8)+(1-fitFrac))
	promotedPerMinor := g.eden * clamp(promotedFrac, 0, 1)

	// Each scavenge copies the fresh survivors plus the retained stock.
	copyPerMinor := survivedPerMinor + minf(stock, survCap)

	// Young-collection worker pool.
	gcThreads := int(c.IntAt(parallelGCThreads))
	switch col {
	case hierarchy.Serial:
		gcThreads = 1
	case hierarchy.CMS:
		if !c.BoolAt(useParNewGC) {
			gcThreads = 1 // classic serial young collector under CMS
		}
	}
	eff := parallelEfficiency(gcThreads, m.Cores)
	if c.BoolAt(useGCTaskAffinity) && gcThreads >= 4 {
		eff *= 1.01
	}
	if c.BoolAt(bindGCTaskThreadsToCPUs) && gcThreads >= 4 {
		eff *= 1.01
	}

	minorPause := copyPerMinor/(copyRateMBps*eff) + minorFixedPause + 0.0004*float64(gcThreads)
	if col == hierarchy.G1 {
		// Remembered-set scanning adds to every evacuation pause.
		minorPause += g.eden * p.PointerIntensity * 0.0004 / eff
		region := g1RegionMB(c, g.heapMB)
		if regions := g.heapMB / region; regions > 2048 {
			minorPause += (regions - 2048) * 3e-6
		}
	}
	if c.BoolAt(parallelRefProcEnabled) && gcThreads > 1 {
		minorPause *= 1 - p.RefIntensity*0.25
	}

	out.minorGCs = minorCount
	out.stopSeconds += minorCount * minorPause
	out.maxPause = minorPause

	// Old generation reclamation.
	promotedTotal := promotedPerMinor*minorCount + alloc*largeDiverted
	freeOld := oldCap - p.LiveSetMB
	fullPauseSerial := (p.LiveSetMB + g.young*0.3) / fullRateMBps
	if permFulls > 0 {
		out.fullGCs += permFulls
		out.stopSeconds += permFulls * fullPauseSerial
	}

	switch col {
	case hierarchy.Serial, hierarchy.Parallel:
		fullEff := 1.0
		if col == hierarchy.Parallel && c.BoolAt(useParallelOldGC) {
			fullEff = parallelEfficiency(gcThreads, m.Cores)
		}
		fullPause := fullPauseSerial / fullEff
		if c.BoolAt(scavengeBeforeFullGC) {
			fullPause *= 0.95
		}
		fulls := promotedTotal / freeOld
		out.fullGCs += fulls
		out.stopSeconds += fulls * fullPause
		if fullPause > out.maxPause {
			out.maxPause = fullPause
		}
		out.stopSeconds += explicitGCCost(c, p, fullPause, false)

	case hierarchy.CMS:
		iof := float64(c.IntAt(cmsInitiatingOccupancyFraction))
		if !c.BoolAt(useCMSInitiatingOccupancyOnly) {
			// Adaptive triggering blends the hint with its own estimate.
			iof = 0.5*iof + 0.5*80
		}
		headroomAtTrigger := g.old * (1 - iof/100)
		concThreads := int(c.IntAt(concGCThreads))
		if concThreads <= 0 {
			concThreads = (gcThreads + 3) / 4
		}
		cycles := promotedTotal / freeOld
		cycleDur := p.LiveSetMB / (concRateMBps * float64(concThreads))
		// Concurrent work steals cores from the application.
		fracInCycles := clamp(cycles*cycleDur/appSeconds, 0, 1)
		out.appSlowdown += fracInCycles * clamp(float64(concThreads)/float64(m.Cores), 0, 1) * 0.9

		remarkEff := 1.0
		if c.BoolAt(cmsParallelRemarkEnabled) {
			remarkEff = parallelEfficiency(gcThreads, m.Cores)
		}
		remark := p.LiveSetMB / (remarkRateMBps * remarkEff)
		if c.BoolAt(cmsScavengeBeforeRemark) {
			remark *= 0.75
			out.stopSeconds += cycles * minorPause * 0.5
		}
		if c.BoolAt(cmsClassUnloadingEnabled) {
			remark *= 1.12
		}
		initialMark := 0.01 + p.LiveSetMB/(remarkRateMBps*4)
		out.stopSeconds += cycles * (initialMark + remark)
		if remark > out.maxPause {
			out.maxPause = remark
		}

		// Concurrent mode failure: promotion outruns the cycle.
		promoRate := promotedTotal / appSeconds
		if headroomAtTrigger > 0 {
			risk := clamp(promoRate*cycleDur/headroomAtTrigger-0.8, 0, 1)
			cmfs := cycles * risk
			out.fullGCs += cmfs
			out.stopSeconds += cmfs * fullPauseSerial // CMF falls back to serial full GC
			if cmfs > 0.5 && fullPauseSerial > out.maxPause {
				out.maxPause = fullPauseSerial
			}
		} else {
			// Triggering beyond the live set: every cycle starts too late.
			out.fullGCs += cycles
			out.stopSeconds += cycles * fullPauseSerial
		}
		out.stopSeconds += explicitGCCost(c, p, fullPauseSerial, true)

	case hierarchy.G1:
		concThreads := int(c.IntAt(concGCThreads))
		if concThreads <= 0 {
			concThreads = (gcThreads + 3) / 4
		}
		ihop := float64(c.IntAt(initiatingHeapOccupancyPercent))
		headroom := g.old*(1-ihop/100) + 1
		cycles := promotedTotal / clamp(freeOld, 1, g.old)
		cycleDur := p.LiveSetMB / (concRateMBps * float64(concThreads))
		fracInCycles := clamp(cycles*cycleDur/appSeconds, 0, 1)
		out.appSlowdown += fracInCycles * clamp(float64(concThreads)/float64(m.Cores), 0, 1) * 0.7

		// Mixed collections evacuate the promoted bytes.
		mixedWork := promotedTotal / (copyRateMBps * eff) * 1.3
		out.stopSeconds += mixedWork
		mixedPer := mixedWork / clamp(cycles*float64(c.IntAt(g1MixedGCCountTarget)), 1, 1e9)
		if mixedPer > out.maxPause {
			out.maxPause = mixedPer
		}
		// Triggering too late risks evacuation failure.
		lateness := clamp(promotedTotal/appSeconds*cycleDur/headroom-0.8, 0, 1)
		evacFails := cycles * lateness * 0.5
		out.fullGCs += evacFails
		out.stopSeconds += evacFails * fullPauseSerial

		// Write barriers and remembered-set maintenance tax the mutator.
		out.appSlowdown += 0.01 + p.PointerIntensity*0.02
		out.stopSeconds += explicitGCCost(c, p, fullPauseSerial, true)
	}

	// Heap growth from InitialHeapSize to the working size.
	initMB := float64(c.IntAt(initialHeapSize) >> 20)
	if initMB < g.heapMB {
		steps := log2(g.heapMB / initMB)
		growCost := 0.04 * steps
		if c.IntAt(minHeapFreeRatio) >= 60 {
			growCost *= 0.6 // eager expansion
		}
		out.startup += growCost
	}
	return out
}

// explicitGCCost charges for System.gc() calls.
func explicitGCCost(c *flags.Config, p *workload.Profile, fullPause float64, concurrentCapable bool) float64 {
	if p.ExplicitGCCalls == 0 || c.BoolAt(disableExplicitGC) {
		return 0
	}
	per := fullPause
	if concurrentCapable && c.BoolAt(explicitGCInvokesConcurrent) {
		per = fullPause * 0.1
	}
	return float64(p.ExplicitGCCalls) * per
}

// g1RegionMB resolves the G1 region size: explicit power-of-two or
// ergonomic (heap/2048 clamped to [1, 32] MB).
func g1RegionMB(c *flags.Config, heapMB float64) float64 {
	if v := c.IntAt(g1HeapRegionSize); v > 0 {
		mb := float64(v >> 20)
		// Round down to a power of two, as the VM does.
		r := 1.0
		for r*2 <= mb && r < 32 {
			r *= 2
		}
		return r
	}
	r := 1.0
	for r*2 <= heapMB/2048 && r < 32 {
		r *= 2
	}
	return r
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func log2(x float64) float64 {
	if x <= 1 {
		return 0
	}
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}
