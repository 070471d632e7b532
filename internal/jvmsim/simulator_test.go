package jvmsim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/flags"
	"repro/internal/workload"
)

func quietSim() *Simulator {
	s := New()
	s.NoiseRelStdDev = 0
	return s
}

func prof(t *testing.T, name string) *workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no profile %s", name)
	}
	return p
}

func TestDefaultsRunEveryWorkload(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	def := flags.NewConfig(reg)
	for _, p := range workload.All() {
		r := s.Run(def, p, 0)
		if !r.Valid() {
			t.Errorf("%s fails under default flags: %s %s", p.Name, r.Failure, r.FailureMessage)
			continue
		}
		if r.WallSeconds < p.BaseSeconds {
			t.Errorf("%s: wall %.2fs below compute floor %.2fs", p.Name, r.WallSeconds, p.BaseSeconds)
		}
	}
}

func TestDeterminismAndNoise(t *testing.T) {
	reg := flags.NewRegistry()
	def := flags.NewConfig(reg)
	p := prof(t, "h2")

	s := New() // with noise
	a := s.Run(def, p, 0)
	b := s.Run(def, p, 0)
	if a.WallSeconds != b.WallSeconds {
		t.Error("same (config, workload, rep) must be exactly reproducible")
	}
	c := s.Run(def, p, 1)
	if a.WallSeconds == c.WallSeconds {
		t.Error("different reps should observe different noise")
	}
	// Noise is bounded: ±3σ of 1.5%.
	ratio := a.WallSeconds / c.WallSeconds
	if ratio < 0.90 || ratio > 1.12 {
		t.Errorf("noise too large: ratio %.3f", ratio)
	}
}

func TestConflictingCollectorsRefuseToStart(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	c := flags.NewConfig(reg)
	c.SetBool("UseG1GC", true)
	c.SetBool("UseConcMarkSweepGC", true)
	r := s.Run(c, prof(t, "h2"), 0)
	if !r.Failed || r.Failure != StartupFailure {
		t.Errorf("conflicting collectors should be a startup failure, got %+v", r)
	}
	if r.WallSeconds > 1 {
		t.Error("startup failures should be fast")
	}
}

func TestOOMWhenHeapTooSmall(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	c := flags.NewConfig(reg)
	c.SetInt("MaxHeapSize", 128<<20)
	c.SetInt("InitialHeapSize", 64<<20)
	r := s.Run(c, prof(t, "h2"), 0) // 230 MB live set cannot fit
	if !r.Failed || r.Failure != OOMFailure {
		t.Errorf("expected OOM, got %+v", r)
	}
}

func TestStackOverflowOnTinyStacks(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	c := flags.NewConfig(reg)
	c.SetInt("ThreadStackSize", 64)
	r := s.Run(c, prof(t, "startup.compiler.compiler"), 0) // deep call chains
	if !r.Failed || r.Failure != StackOverflowFailure {
		t.Errorf("expected stack overflow, got %+v", r)
	}
	// A loop-bound kernel survives small stacks.
	r2 := s.Run(c, prof(t, "startup.scimark.fft"), 0)
	if r2.Failed {
		t.Errorf("shallow-call program should survive: %+v", r2)
	}
}

func TestTieredCompilationHelpsStartup(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	def := flags.NewConfig(reg)
	tiered := flags.NewConfig(reg)
	tiered.SetBool("TieredCompilation", true)
	p := prof(t, "startup.compiler.compiler")
	d := s.Run(def, p, 0)
	tr := s.Run(tiered, p, 0)
	if tr.WallSeconds >= d.WallSeconds*0.7 {
		t.Errorf("tiered should cut warm-up dramatically: %.1fs vs %.1fs", tr.WallSeconds, d.WallSeconds)
	}
}

func TestLowerCompileThresholdHelpsStartup(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	def := flags.NewConfig(reg)
	low := flags.NewConfig(reg)
	low.SetInt("CompileThreshold", 1000)
	p := prof(t, "startup.xml.validation")
	if s.Run(low, p, 0).WallSeconds >= s.Run(def, p, 0).WallSeconds {
		t.Error("lower CompileThreshold should shorten warm-up-dominated runs")
	}
}

func TestBiggerHeapHelpsGCBoundWorkload(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	def := flags.NewConfig(reg)
	big := flags.NewConfig(reg)
	big.SetInt("MaxHeapSize", 4<<30)
	big.SetInt("InitialHeapSize", 4<<30)
	p := prof(t, "h2")
	d, b := s.Run(def, p, 0), s.Run(big, p, 0)
	if b.WallSeconds >= d.WallSeconds*0.9 {
		t.Errorf("4g heap should relieve h2 substantially: %.1fs vs %.1fs", b.WallSeconds, d.WallSeconds)
	}
	if b.FullGCs >= d.FullGCs {
		t.Error("bigger heap should mean fewer full GCs")
	}
}

func TestSerialCollectorPausesAreWorse(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	serial := flags.NewConfig(reg)
	serial.SetBool("UseSerialGC", true)
	serial.SetBool("UseParallelGC", false)
	def := flags.NewConfig(reg)
	p := prof(t, "tradebeans")
	rs, rd := s.Run(serial, p, 0), s.Run(def, p, 0)
	if !rs.Valid() || !rd.Valid() {
		t.Fatalf("runs failed: %+v %+v", rs, rd)
	}
	if rs.GCStopSeconds <= rd.GCStopSeconds {
		t.Errorf("serial GC should pause more than parallel: %.1fs vs %.1fs",
			rs.GCStopSeconds, rd.GCStopSeconds)
	}
}

func TestCollectorIsReported(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	for _, c := range []struct {
		set  string
		want string
	}{{"UseG1GC", "g1"}, {"UseConcMarkSweepGC", "cms"}, {"UseSerialGC", "serial"}} {
		cfg := flags.NewConfig(reg)
		cfg.SetBool(c.set, true)
		cfg.SetBool("UseParallelGC", false)
		r := s.Run(cfg, prof(t, "h2"), 0)
		if r.Collector != c.want {
			t.Errorf("%s: collector reported %q", c.set, r.Collector)
		}
	}
}

func TestVerificationFlagsCostTime(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	def := flags.NewConfig(reg)
	verify := flags.NewConfig(reg)
	verify.SetBool("VerifyBeforeGC", true)
	verify.SetBool("VerifyAfterGC", true)
	p := prof(t, "xalan")
	d, v := s.Run(def, p, 0), s.Run(verify, p, 0)
	if v.WallSeconds <= d.WallSeconds*1.1 {
		t.Errorf("heap verification should cost >10%%: %.1fs vs %.1fs", v.WallSeconds, d.WallSeconds)
	}
}

func TestInlineStarvationHurtsCallBoundCode(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	def := flags.NewConfig(reg)
	starved := flags.NewConfig(reg)
	starved.SetInt("MaxInlineSize", 1)
	starved.SetInt("FreqInlineSize", 50)
	p := prof(t, "jython") // call intensity 0.85
	if s.Run(starved, p, 0).WallSeconds <= s.Run(def, p, 0).WallSeconds {
		t.Error("starving the inliner should hurt call-bound code")
	}
}

func TestCodeCacheExhaustionCliff(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	tiny := flags.NewConfig(reg)
	tiny.SetInt("ReservedCodeCacheSize", 8<<20)
	tiny.SetBool("TieredCompilation", true)
	p := prof(t, "eclipse") // 4200 hot methods × ~2 KB ≫ 8 MB
	def := flags.NewConfig(reg)
	def.SetBool("TieredCompilation", true)
	rt, rd := s.Run(tiny, p, 0), s.Run(def, p, 0)
	if rt.WallSeconds <= rd.WallSeconds*1.05 {
		t.Errorf("code-cache exhaustion should be a cliff: %.1fs vs %.1fs", rt.WallSeconds, rd.WallSeconds)
	}
	if rt.CodeCacheUsedKB <= 8<<10 {
		t.Errorf("model should report overflowing footprint, got %.0f KB", rt.CodeCacheUsedKB)
	}
}

func TestCMSConcurrentModeFailureWhenTriggeredLate(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	base := flags.NewConfig(reg)
	base.SetBool("UseConcMarkSweepGC", true)
	base.SetBool("UseParallelGC", false)
	base.SetBool("UseParNewGC", true)
	base.SetBool("UseCMSInitiatingOccupancyOnly", true)

	early := base.Clone()
	early.SetInt("CMSInitiatingOccupancyFraction", 40)
	late := base.Clone()
	late.SetInt("CMSInitiatingOccupancyFraction", 95)

	p := prof(t, "h2")
	re, rl := s.Run(early, p, 0), s.Run(late, p, 0)
	if !re.Valid() || !rl.Valid() {
		t.Fatalf("CMS runs failed: %+v %+v", re, rl)
	}
	if rl.FullGCs <= re.FullGCs {
		t.Errorf("late CMS trigger should cause more concurrent-mode failures: %.1f vs %.1f",
			rl.FullGCs, re.FullGCs)
	}
}

func TestExplicitGCFlagMatters(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	p := *prof(t, "pmd")
	p.ExplicitGCCalls = 20
	def := flags.NewConfig(reg)
	dis := flags.NewConfig(reg)
	dis.SetBool("DisableExplicitGC", true)
	if s.Run(dis, &p, 0).WallSeconds >= s.Run(def, &p, 0).WallSeconds {
		t.Error("DisableExplicitGC should pay off when the app calls System.gc()")
	}
}

func TestGCThreadOversubscriptionHurts(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	def := flags.NewConfig(reg) // 8 threads on 8 cores
	over := flags.NewConfig(reg)
	over.SetInt("ParallelGCThreads", 64)
	p := prof(t, "tradebeans")
	rd, ro := s.Run(def, p, 0), s.Run(over, p, 0)
	if ro.GCStopSeconds <= rd.GCStopSeconds {
		t.Errorf("64 GC threads on 8 cores should pause longer: %.2fs vs %.2fs",
			ro.GCStopSeconds, rd.GCStopSeconds)
	}
}

func TestHugeHeapPaysPagingPenalty(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	huge := flags.NewConfig(reg)
	huge.SetInt("MaxHeapSize", 8<<30) // vs 16 GB RAM ⇒ fine
	p := prof(t, "h2")
	r8 := s.Run(huge, p, 0)
	if !r8.Valid() {
		t.Fatalf("8g heap should work: %+v", r8)
	}
	// Shrink RAM so the same heap crowds it.
	small := quietSim()
	small.Machine.RAMMB = 8192
	rp := small.Run(huge, p, 0)
	if rp.WallSeconds <= r8.WallSeconds {
		t.Error("heap above 90% of RAM should page")
	}
}

func TestParallelEfficiency(t *testing.T) {
	if parallelEfficiency(1, 8) != 1 {
		t.Error("one thread must have efficiency 1")
	}
	if e4, e8 := parallelEfficiency(4, 8), parallelEfficiency(8, 8); !(e8 > e4 && e4 > 1) {
		t.Error("efficiency should increase with threads within the core budget")
	}
	if parallelEfficiency(16, 8) >= parallelEfficiency(8, 8) {
		t.Error("oversubscription should not improve efficiency")
	}
	if parallelEfficiency(0, 8) != 1 {
		t.Error("degenerate thread count should clamp to 1")
	}
	if parallelEfficiency(64, 8) < 0.4*parallelEfficiency(8, 8)*0.4 {
		t.Error("oversubscription penalty should be bounded")
	}
}

func TestNoiseFactorProperties(t *testing.T) {
	if noiseFactor("a", "b", 0, 0) != 1 {
		t.Error("zero stddev must be exactly 1")
	}
	// Deterministic.
	if noiseFactor("k", "w", 3, 0.015) != noiseFactor("k", "w", 3, 0.015) {
		t.Error("noise must be deterministic")
	}
	// Roughly centered and bounded.
	sum := 0.0
	for i := 0; i < 2000; i++ {
		f := noiseFactor("cfg", "wl", i, 0.015)
		if f < math.Exp(-3*0.015-1e-9) || f > math.Exp(3*0.015+1e-9) {
			t.Fatalf("noise %v outside ±3σ bounds", f)
		}
		sum += f
	}
	mean := sum / 2000
	if mean < 0.99 || mean > 1.01 {
		t.Errorf("noise mean %.4f should be ≈1", mean)
	}
}

func TestDefaultWall(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	p := prof(t, "fop")
	w := s.DefaultWall(reg, p, 3)
	r := s.Run(flags.NewConfig(reg), p, 0)
	if math.Abs(w-r.WallSeconds) > 1e-9 {
		t.Errorf("noiseless DefaultWall %.3f should equal a single run %.3f", w, r.WallSeconds)
	}
	if s.DefaultWall(reg, p, 0) <= 0 {
		t.Error("reps<1 should clamp to 1 and still measure")
	}
}

func TestResultValid(t *testing.T) {
	if (Result{WallSeconds: 1}).Valid() != true {
		t.Error("plain result should be valid")
	}
	if (Result{WallSeconds: -1}).Valid() {
		t.Error("negative wall invalid")
	}
	if (Result{WallSeconds: math.NaN()}).Valid() {
		t.Error("NaN wall invalid")
	}
	if (Result{WallSeconds: 1, Failed: true}).Valid() {
		t.Error("failed result invalid")
	}
}

// Property: across many random-but-structurally-valid configurations the
// simulator never returns NaN/Inf and never goes below the compute floor.
func TestSimulatorTotalityOverRandomConfigs(t *testing.T) {
	s := quietSim()
	reg := flags.NewRegistry()
	tun := reg.TunableIDs()
	p := prof(t, "tomcat")
	rng := newTestRand(1234)
	for trial := 0; trial < 300; trial++ {
		c := flags.NewConfig(reg)
		// Mutate a random handful of flags.
		for k := 0; k < 6; k++ {
			flags.MutateFlag(c, tun[rng.Intn(len(tun))], rng)
		}
		r := s.Run(c, p, trial)
		if r.Failed {
			continue // crashes are legitimate outcomes
		}
		if !r.Valid() {
			t.Fatalf("invalid non-failed result for %s: %+v", c.Key(), r)
		}
		if r.WallSeconds > 1e6 {
			t.Fatalf("implausible wall %.1f for %s", r.WallSeconds, c.Key())
		}
	}
}

// TestForeignRegistryPanics: the model reads configurations through IDs
// resolved against the standard catalog, so a configuration from another
// registry must stop at the entry, naming the mismatch, instead of being
// simulated through the wrong flags.
func TestForeignRegistryPanics(t *testing.T) {
	reg, err := flags.NewCustomRegistry([]flags.Flag{
		{Name: "MaxHeapSize", Type: flags.Int, Kind: flags.Product, Max: 1 << 40, Default: flags.IntValue(1 << 30)},
		{Name: "UseG1GC", Type: flags.Bool, Kind: flags.Product},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := flags.NewConfig(reg)
	p := prof(t, "h2")
	for _, e := range []struct {
		what string
		fn   func()
	}{
		{"Run", func() { quietSim().Run(c, p, 0) }},
		{"RunReps", func() { quietSim().RunReps(c, p, 0, 3, nil) }},
		{"DefaultWall", func() { quietSim().DefaultWall(reg, p, 1) }},
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "registry other than the standard catalog") {
					t.Errorf("%s on a foreign config: panic %v, want one naming the registry mismatch", e.what, p)
				}
			}()
			e.fn()
		}()
	}
}
