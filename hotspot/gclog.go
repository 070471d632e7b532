package hotspot

import (
	"fmt"
	"strings"
)

// GCLogStats summarizes a -XX:+PrintGC-style log: the observable facts a
// profile can be estimated from.
type GCLogStats struct {
	MinorGCs        int
	FullGCs         int
	StopSeconds     float64
	RunSeconds      float64 // last timestamp
	HeapMB          float64 // total heap from the (...K) capacity fields
	YoungMB         float64 // estimated from minor-GC before-sizes
	LiveMB          float64 // estimated from full-GC after-sizes
	AllocRateMBps   float64 // young allocation churn per second
	GCOverheadFrac  float64
	MeanMinorPause  float64
	WorstPauseMilli float64
}

// ProfileFromGCLog estimates a workload profile from a GC log plus the
// program's approximate run time — the adoption path for tuning a real
// application: capture one -XX:+PrintGC log under default flags, import
// it, tune the synthetic twin, and try the winning flags on the real JVM.
//
// Only allocation- and heap-related parameters can be observed in a GC
// log; JIT-side parameters default to a moderate server shape. name labels
// the resulting profile.
func ProfileFromGCLog(name, log string, runSeconds float64) (*Profile, *GCLogStats, error) {
	if runSeconds <= 0 {
		return nil, nil, fmt.Errorf("hotspot: runSeconds must be positive")
	}
	stats, err := ParseGCLog(log)
	if err != nil {
		return nil, nil, err
	}
	if stats.MinorGCs == 0 && stats.FullGCs == 0 {
		return nil, nil, fmt.Errorf("hotspot: log contains no collections; nothing to estimate")
	}
	if stats.RunSeconds > runSeconds {
		runSeconds = stats.RunSeconds
	}

	live := stats.LiveMB
	if live == 0 {
		// No full GCs: bound the live set by what minor GCs retained.
		live = stats.HeapMB * 0.15
	}
	p := &Profile{
		Name:        name,
		Suite:       "imported",
		Description: "profile estimated from a GC log",

		BaseSeconds:     runSeconds * (1 - stats.GCOverheadFrac),
		StartupFraction: 0.15,

		// JIT-side parameters are unobservable in a GC log; use a moderate
		// server shape.
		WarmupWork: 0.02 * runSeconds, HotMethods: 1500, CodeKBPerMethod: 1.8,
		CallIntensity: 0.6, LoopIntensity: 0.2, EscapeFrac: 0.25,

		AllocRateMBps: stats.AllocRateMBps,
		LiveSetMB:     live,
		ClassMetaMB:   40,

		ShortLivedFrac: 0.88, MidLivedFrac: 0.07,
		MidLifeRounds: 3, EdenHalfLifeMB: maxf(20, stats.YoungMB/4),
		PointerIntensity: 0.6, RefIntensity: 0.1, StringIntensity: 0.3,
		SyncIntensity: 0.3, LockContention: 0.1,
		AppThreads: 4,
	}
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("hotspot: estimated profile invalid: %w", err)
	}
	return p, stats, nil
}

// ParseGCLog extracts summary statistics from a -XX:+PrintGC-style log.
func ParseGCLog(log string) (*GCLogStats, error) {
	s := &GCLogStats{}
	var youngBeforeSum, liveAfterSum, minorPauseSum float64
	var youngAlloc float64
	var firstT, lastT float64
	first := true

	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		if line == "" {
			continue
		}
		var t, before, after, total, secs float64
		full := false
		if n, _ := fmt.Sscanf(line, "%f: [Full GC %fK->%fK(%fK), %f secs]",
			&t, &before, &after, &total, &secs); n == 5 {
			full = true
		} else if n, _ := fmt.Sscanf(line, "%f: [GC %fK->%fK(%fK), %f secs]",
			&t, &before, &after, &total, &secs); n != 5 {
			return nil, fmt.Errorf("hotspot: unparseable GC log line %q", line)
		}
		if first {
			firstT, first = t, false
		}
		lastT = t
		s.StopSeconds += secs
		s.HeapMB = total / 1024
		if secs*1000 > s.WorstPauseMilli {
			s.WorstPauseMilli = secs * 1000
		}
		if full {
			s.FullGCs++
			liveAfterSum += after / 1024
		} else {
			s.MinorGCs++
			youngBeforeSum += before / 1024
			youngAlloc += (before - after) / 1024
			minorPauseSum += secs
		}
	}
	if s.MinorGCs > 0 {
		s.YoungMB = youngBeforeSum / float64(s.MinorGCs)
		s.MeanMinorPause = minorPauseSum / float64(s.MinorGCs)
	}
	if s.FullGCs > 0 {
		s.LiveMB = liveAfterSum / float64(s.FullGCs)
	}
	s.RunSeconds = lastT
	if span := lastT - firstT; span > 0 {
		s.AllocRateMBps = youngAlloc / span
	}
	if s.RunSeconds > 0 {
		s.GCOverheadFrac = clampf(s.StopSeconds/s.RunSeconds, 0, 0.9)
	}
	return s, nil
}

// TuneFromGCLog is the one-call adoption path: estimate a profile from the
// log and tune it.
func TuneFromGCLog(name, log string, runSeconds float64, opts Options) (*Result, *GCLogStats, error) {
	p, stats, err := ProfileFromGCLog(name, log, runSeconds)
	if err != nil {
		return nil, nil, err
	}
	opts.Workload = p
	res, err := Tune(opts)
	if err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func clampf(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
