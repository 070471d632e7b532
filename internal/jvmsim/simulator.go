package jvmsim

import (
	"repro/internal/flags"
	"repro/internal/hierarchy"
	"repro/internal/workload"
)

// Simulator evaluates flag configurations against workload profiles.
// It is stateless and safe for concurrent use.
type Simulator struct {
	// Machine is the simulated host.
	Machine Machine
	// NoiseRelStdDev is the run-to-run measurement noise (relative standard
	// deviation). The DefaultNoise value matches the few-percent variation
	// real benchmark harnesses see.
	NoiseRelStdDev float64
}

// DefaultNoise is the standard measurement noise level.
const DefaultNoise = 0.015

// New returns a simulator on the default machine with default noise.
func New() *Simulator {
	return &Simulator{Machine: DefaultMachine(), NoiseRelStdDev: DefaultNoise}
}

// Run simulates one execution of profile p under configuration c.
// rep distinguishes repetitions for the noise model; runs are otherwise
// deterministic in (c, p, rep).
func (s *Simulator) Run(c *flags.Config, p *workload.Profile, rep int) Result {
	r := s.runNoiseless(c, p)
	if r.Failed {
		return r
	}
	r.WallSeconds *= noiseFactor(c.Key(), p.Name, rep, s.NoiseRelStdDev)
	return r
}

// RunReps simulates n consecutive repetitions (rep indices repBase …
// repBase+n-1) of profile p under configuration c, appending the results to
// out and returning the extended slice. The model is evaluated once and only
// the per-rep noise factor differs between repetitions, so scoring a batch
// of reps costs one simulation plus n multiplications — this is the batch
// entry point the in-process runner's hot loop uses. Results are bitwise
// identical to calling Run with each rep index.
func (s *Simulator) RunReps(c *flags.Config, p *workload.Profile, repBase, n int, out []Result) []Result {
	base := s.runNoiseless(c, p)
	if base.Failed {
		// Failures are deterministic: every repetition dies the same way.
		for i := 0; i < n; i++ {
			out = append(out, base)
		}
		return out
	}
	key := c.Key()
	for i := 0; i < n; i++ {
		r := base
		r.WallSeconds *= noiseFactor(key, p.Name, repBase+i, s.NoiseRelStdDev)
		out = append(out, r)
	}
	return out
}

// runNoiseless evaluates the full cost model for (c, p) without the
// measurement-noise factor. Run and RunReps layer noise on top.
func (s *Simulator) runNoiseless(c *flags.Config, p *workload.Profile) Result {
	checkRegistry(c)
	if err := p.Validate(); err != nil {
		return failed(StartupFailure, 0, "invalid workload: %v", err)
	}
	// The VM validates the flag combination before doing anything else.
	if err := c.Validate(); err != nil {
		return failed(StartupFailure, 0.05, "Unrecognized or malformed VM option: %v", err)
	}
	if err := hierarchy.Validate(c); err != nil {
		return failed(StartupFailure, 0.05, "Error occurred during initialization of VM: %v", err)
	}
	col, err := hierarchy.SelectedCollector(c)
	if err != nil {
		return failed(StartupFailure, 0.05, "Error occurred during initialization of VM: %v", err)
	}

	// Thread stacks too small for the program's call depth die immediately.
	if ss := c.IntAt(threadStackSize); ss > 0 && ss < 192 && p.CallIntensity > 0.6 {
		return failed(StackOverflowFailure, 0.5+0.05*p.BaseSeconds,
			"java.lang.StackOverflowError (ThreadStackSize=%dk)", ss)
	}

	// Heaps approaching physical memory start paging.
	heapMB := float64(c.IntAt(maxHeapSize) >> 20)
	pagingPenalty := 1.0
	if limit := s.Machine.RAMMB * 0.9; heapMB > limit {
		pagingPenalty = 1 + (heapMB-limit)/s.Machine.RAMMB*5
	}

	fx := computeFeatures(c, p, s.Machine)
	jit := computeJIT(c, p, s.Machine, fx)
	appSeconds := jit.appSeconds * fx.appPenalty
	gc := computeGC(c, p, col, s.Machine, appSeconds, fx.allocScale)

	if gc.oom {
		// The run died once the live set outgrew the old generation —
		// charge a fraction of the run plus the time spent thrashing.
		wall := jvmBootSeconds + appSeconds*0.35 + 2.0
		return failed(OOMFailure, wall, "%s", gc.oomMessage)
	}
	// The GC-overhead limit kills runs that spend nearly all their time
	// collecting (98% is HotSpot's GCTimeLimit default).
	if c.BoolAt(useGCOverheadLimit) &&
		gc.stopSeconds > 10 && gc.stopSeconds > 49*appSeconds {
		wall := jvmBootSeconds + appSeconds + gc.stopSeconds*0.25
		return failed(OOMFailure, wall,
			"java.lang.OutOfMemoryError: GC overhead limit exceeded")
	}

	// Oversized heaps lose a little locality even without paging.
	localityPenalty := 1.0
	if heapMB > 1024 {
		localityPenalty = 1 + 0.004*log2(heapMB/1024)
	}

	startup := jvmBootSeconds + fx.startupExtra + jit.startupExtra + gc.startup
	app := appSeconds * (1 + gc.appSlowdown) * localityPenalty
	wall := (startup + app + gc.stopSeconds + jit.compileStall) * fx.overhead * pagingPenalty

	return Result{
		WallSeconds:         wall,
		StartupSeconds:      startup,
		AppSeconds:          app,
		GCStopSeconds:       gc.stopSeconds,
		ConcurrentSlowdown:  gc.appSlowdown,
		CompileStallSeconds: jit.compileStall,
		Collector:           string(col),
		MinorGCs:            gc.minorGCs,
		FullGCs:             gc.fullGCs,
		MaxPauseSeconds:     gc.maxPause,
		CodeCacheUsedKB:     jit.codeCacheUsedKB,
		YoungMB:             gc.youngMB,
		OldMB:               gc.oldMB,
	}
}

// DefaultWall returns the mean wall time of the default configuration over
// reps repetitions — the baseline every improvement is measured against.
func (s *Simulator) DefaultWall(reg *flags.Registry, p *workload.Profile, reps int) float64 {
	if reps < 1 {
		reps = 1
	}
	c := flags.NewConfig(reg)
	sum := 0.0
	for i := 0; i < reps; i++ {
		sum += s.Run(c, p, i).WallSeconds
	}
	return sum / float64(reps)
}
