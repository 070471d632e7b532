package jvmsim

import (
	"repro/internal/flags"
	"repro/internal/workload"
)

// jitOutcome is the JIT phase model's contribution to a run.
type jitOutcome struct {
	// appSeconds is application compute time including the warm-up penalty
	// (interpreted and C1 phases) — the core of every startup benchmark.
	appSeconds float64
	// compileStall is JIT work on the critical path (queue waits, or all of
	// it with background compilation off).
	compileStall float64
	// codeCacheUsedKB is the emitted code footprint.
	codeCacheUsedKB float64
	// startupExtra adds to startup cost (undersized initial code cache).
	startupExtra float64
}

// computeJIT models warm-up and compilation.
//
// The program owes p.BaseSeconds of work at full C2 speed. Before hot code
// is compiled it runs interpreted (15× slower) or under C1 (2.2× slower).
// The amount of work executed before compilation is p.WarmupWork at the
// default CompileThreshold of 10000 and scales sublinearly with the
// threshold (on-stack replacement compiles hot loops earlier than hot
// methods). Tiered compilation replaces most of the interpreted phase with
// a C1 phase: dramatically better warm-up at the price of more compilation
// and a bigger code footprint.
func computeJIT(c *flags.Config, p *workload.Profile, m Machine, fx featureEffects) jitOutcome {
	var out jitOutcome

	interpSpeed := fx.interpSpeed / interpreterSlowdown
	c1Speed := 1 / c1Slowdown
	c2Speed := fx.compiledSpeed
	base := p.BaseSeconds

	warmRef := p.WarmupWork
	if !c.BoolAt(useCounterDecay) {
		// Without decay, invocation counters accumulate monotonically and
		// thresholds are reached slightly sooner.
		warmRef *= 0.92
	}
	// OSR aggressiveness: loop-heavy code escapes the interpreter through
	// on-stack replacement; raising the OSR percentage delays that.
	osrPct := float64(c.IntAt(onStackReplacePercentage))
	osrRelief := 0.25 * p.LoopIntensity * clamp(140/osrPct, 0, 1.2)

	tiered := c.BoolAt(tieredCompilation)
	var methodsC2, methodsC1 float64
	if !tiered {
		thr := float64(c.IntAt(compileThreshold))
		warm := warmRef * pow(thr/10000, 0.9) * (1 - osrRelief)
		if pp := float64(c.IntAt(interpreterProfilePercentage)); pp > 33 {
			warm *= 1 + (pp-33)/150
		} else if pp < 10 {
			// Too little profiling degrades the compiled code.
			c2Speed *= 0.98
		}
		warm = clamp(warm, 0, base*0.9)
		out.appSeconds = warm/interpSpeed + (base-warm)/c2Speed
		// Lower thresholds compile more lukewarm methods.
		methodsC2 = float64(p.HotMethods) * pow(10000/thr, 0.35)
	} else {
		// Tiered: a short interpreted ramp, then C1 until C2 catches up.
		interpPhase := clamp(warmRef*0.10*(1-osrRelief), 0, base*0.5)
		c1Phase := clamp(warmRef*0.9, 0, base*0.7-interpPhase)
		if c1Phase < 0 {
			c1Phase = 0
		}
		stopLevel := c.IntAt(tieredStopAtLevel)
		if stopLevel < 4 {
			// Stopping at C1: quick warm-up but the whole run executes at
			// C1 speed — a win only for the shortest programs.
			finalSpeed := c1Speed * 1.05
			out.appSeconds = interpPhase/interpSpeed + (base-interpPhase)/finalSpeed
			methodsC1 = float64(p.HotMethods) * 1.4
		} else {
			out.appSeconds = interpPhase/interpSpeed + c1Phase/c1Speed +
				(base-interpPhase-c1Phase)/c2Speed
			methodsC1 = float64(p.HotMethods) * 1.9
			methodsC2 = float64(p.HotMethods) * 1.1
		}
	}

	// Compilation work and its visibility.
	compileWork := methodsC2*p.CodeKBPerMethod*compileSecPerKBC2 +
		methodsC1*p.CodeKBPerMethod*compileSecPerKBC1
	ci := int(c.IntAt(ciCompilerCount))
	if ci < 1 {
		ci = 1
	}
	if c.BoolAt(backgroundCompilation) {
		// Background compilation overlaps execution; what remains visible
		// is queue-induced waiting during warm-up.
		out.compileStall = compileWork * 0.08 / float64(ci)
		// Compiler threads can still steal CPU when the machine is busy.
		busy := clamp(float64(p.AppThreads+ci)/float64(m.Cores)-1, 0, 1)
		out.compileStall += compileWork * 0.5 * busy
	} else {
		out.compileStall = compileWork / float64(ci)
	}
	if ci > m.Cores {
		out.compileStall *= 1 + 0.1*float64(ci-m.Cores)
	}

	// Code cache.
	used := (methodsC2 + methodsC1*0.6) * p.CodeKBPerMethod * fx.codeExpansion
	out.codeCacheUsedKB = used
	reservedKB := float64(c.IntAt(reservedCodeCacheSize) >> 10)
	if used > reservedKB {
		if c.BoolAt(useCodeCacheFlushing) {
			// Flushing keeps compiling at the price of recompilation churn.
			out.appSeconds *= 1 + 0.06*clamp(used/reservedKB-1, 0, 1)
		} else {
			// Compilation shuts off; the overflow fraction of hot code runs
			// interpreted for the rest of the run.
			overflow := clamp((used-reservedKB)/used, 0, 0.5)
			out.appSeconds += base * overflow * (1/interpSpeed - 1) * 0.5
		}
	}
	if c.IntAt(initialCodeCacheSize) < 256<<10 {
		out.startupExtra += 0.05
	}
	return out
}
