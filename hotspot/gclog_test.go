package hotspot

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/workload"
)

// sampleRun runs a known workload under defaults on a noiseless
// simulator.
func sampleRun(t *testing.T, bench string) jvmsim.Result {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("no workload %s", bench)
	}
	sim := jvmsim.New()
	sim.NoiseRelStdDev = 0
	r := sim.Run(flags.NewConfig(flags.NewRegistry()), p, 0)
	if r.Failed {
		t.Fatal("run failed")
	}
	return r
}

// sampleLog synthesizes a GC log by running a known workload on the
// simulator — the same dialect a real -XX:+PrintGC produces.
func sampleLog(t *testing.T, bench string) (string, float64) {
	t.Helper()
	r := sampleRun(t, bench)
	return jvmsim.FormatGCLog(r), r.WallSeconds
}

// TestFormatGCLogRoundTrip: the log the simulator synthesizes for a run
// parses back to that run's collections and stop time, with increasing
// timestamps.
func TestFormatGCLogRoundTrip(t *testing.T) {
	r := sampleRun(t, "h2")
	log := jvmsim.FormatGCLog(r)
	if log == "" {
		t.Fatal("h2 collects; log should not be empty")
	}
	stats, err := ParseGCLog(log)
	if err != nil {
		t.Fatal(err)
	}
	// Integer truncation of modelled counts, so allow off-by-one-ish.
	if diff := float64(stats.MinorGCs+stats.FullGCs) - (r.MinorGCs + r.FullGCs); diff > 2 || diff < -2 {
		t.Errorf("log events %d+%d vs model %.1f+%.1f", stats.MinorGCs, stats.FullGCs, r.MinorGCs, r.FullGCs)
	}
	if stats.FullGCs == 0 {
		t.Error("h2 under defaults has full GCs; none in log")
	}
	// Reconstructed stop time within 30% of the model (apportioning between
	// minor and full pauses is approximate).
	if stats.StopSeconds < r.GCStopSeconds*0.7 || stats.StopSeconds > r.GCStopSeconds*1.3 {
		t.Errorf("log stop time %.2fs vs model %.2fs", stats.StopSeconds, r.GCStopSeconds)
	}
	lastT := -1.0
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		var ts float64
		if n, _ := fmt.Sscanf(line, "%f:", &ts); n != 1 {
			t.Fatalf("bad line %q", line)
		}
		if ts <= lastT {
			t.Fatalf("timestamps not increasing at %q", line)
		}
		lastT = ts
	}
}

func TestParseGCLog(t *testing.T) {
	log, _ := sampleLog(t, "h2")
	stats, err := ParseGCLog(log)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MinorGCs == 0 || stats.FullGCs == 0 {
		t.Errorf("h2's log should show both kinds of collection: %+v", stats)
	}
	if stats.HeapMB < 500 || stats.HeapMB > 525 {
		t.Errorf("heap estimate %.0f MB, expected ~512", stats.HeapMB)
	}
	if stats.AllocRateMBps <= 0 {
		t.Error("allocation rate not estimated")
	}
	if stats.LiveMB <= 0 || stats.LiveMB > stats.HeapMB {
		t.Errorf("implausible live estimate %.0f MB", stats.LiveMB)
	}
	if stats.GCOverheadFrac <= 0 || stats.GCOverheadFrac > 0.9 {
		t.Errorf("overhead fraction %.2f", stats.GCOverheadFrac)
	}
}

func TestParseGCLogRejectsGarbage(t *testing.T) {
	if _, err := ParseGCLog("hello world"); err == nil {
		t.Error("garbage should error")
	}
	if s, err := ParseGCLog(""); err != nil || *s != (GCLogStats{}) {
		t.Errorf("empty log should parse to zeros: %+v, %v", s, err)
	}
}

func TestProfileFromGCLog(t *testing.T) {
	log, wall := sampleLog(t, "h2")
	p, stats, err := ProfileFromGCLog("imported-h2", log, wall)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "imported-h2" || p.Suite != "imported" {
		t.Errorf("profile identity: %+v", p.Name)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The estimated twin should land in the neighbourhood of the source:
	// h2's profile allocates 125 MB/s with a 238 MB live set.
	if p.AllocRateMBps < 40 || p.AllocRateMBps > 300 {
		t.Errorf("allocation estimate %.0f MB/s far from source", p.AllocRateMBps)
	}
	if p.LiveSetMB < 80 || p.LiveSetMB > 400 {
		t.Errorf("live-set estimate %.0f MB far from source", p.LiveSetMB)
	}
	if stats.FullGCs == 0 {
		t.Error("stats should be returned")
	}
}

func TestProfileFromGCLogErrors(t *testing.T) {
	log, _ := sampleLog(t, "h2")
	if _, _, err := ProfileFromGCLog("x", log, 0); err == nil {
		t.Error("zero runSeconds should error")
	}
	if _, _, err := ProfileFromGCLog("x", "", 10); err == nil {
		t.Error("empty log should error")
	}
	if _, _, err := ProfileFromGCLog("x", "garbage", 10); err == nil {
		t.Error("garbage log should error")
	}
}

func TestTuneFromGCLog(t *testing.T) {
	log, wall := sampleLog(t, "h2")
	res, stats, err := TuneFromGCLog("imported-h2", log, wall,
		Options{BudgetMinutes: 40, Seed: 5, Noise: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "imported-h2" {
		t.Errorf("tuned %q", res.Benchmark)
	}
	// The imported twin inherited h2's heap pressure, so the tuner should
	// find a solid improvement (heap/GC moves at minimum).
	if res.ImprovementPct < 10 {
		t.Errorf("only %.1f%% on a GC-pressured import", res.ImprovementPct)
	}
	if stats.MinorGCs == 0 {
		t.Error("stats missing")
	}
	// The winning flags must parse as a real command line.
	if _, err := flags.ParseArgs(flags.NewRegistry(), res.CommandLine); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Collector, " ") {
		t.Error("collector looks malformed")
	}
}
