package jvmsim

import (
	"fmt"
	"strings"
)

// FormatGCLog synthesizes a HotSpot-style GC log for a completed run —
// the artifact a real tuning harness scrapes. The timeline is derived from
// the aggregate model: minor collections evenly spaced through the run,
// full collections interleaved at their modelled frequency, pause durations
// from the modelled means. Deterministic given the Result.
//
// The format follows -XX:+PrintGC with timestamps:
//
//	12.345: [GC 245760K->24576K(524288K), 0.0123 secs]
//	45.678: [Full GC 245760K->131072K(524288K), 0.8765 secs]
func FormatGCLog(r Result) string {
	if r.Failed {
		return ""
	}
	var b strings.Builder
	heapKB := (r.YoungMB + r.OldMB) * 1024
	youngKB := r.YoungMB * 1024

	minors := int(r.MinorGCs)
	fulls := int(r.FullGCs)
	if minors == 0 && fulls == 0 {
		return ""
	}
	events := minors + fulls
	span := r.WallSeconds - r.StartupSeconds
	if span <= 0 {
		span = r.WallSeconds
	}
	step := span / float64(events+1)

	minorPause := 0.0
	if minors > 0 {
		// Apportion stop time between minor and full pauses using the
		// modelled maximum as the full-pause estimate.
		fullTotal := r.MaxPauseSeconds * float64(fulls)
		if fullTotal > r.GCStopSeconds {
			fullTotal = r.GCStopSeconds * 0.7
		}
		minorPause = (r.GCStopSeconds - fullTotal) / float64(minors)
		if minorPause < 0 {
			minorPause = 0.001
		}
	}

	fullEvery := events + 1
	if fulls > 0 {
		fullEvery = events / fulls
		if fullEvery < 1 {
			fullEvery = 1
		}
	}
	emitted := 0
	for i := 1; i <= events; i++ {
		t := r.StartupSeconds + float64(i)*step
		if fulls > 0 && i%fullEvery == 0 && emitted < fulls {
			emitted++
			before := heapKB * 0.9
			after := r.OldMB * 1024 * 0.6
			fmt.Fprintf(&b, "%.3f: [Full GC %.0fK->%.0fK(%.0fK), %.4f secs]\n",
				t, before, after, heapKB, r.MaxPauseSeconds)
			continue
		}
		before := youngKB * 0.95
		after := youngKB * 0.1
		fmt.Fprintf(&b, "%.3f: [GC %.0fK->%.0fK(%.0fK), %.4f secs]\n",
			t, before, after, heapKB, minorPause)
	}
	return b.String()
}
