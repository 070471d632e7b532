package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The experiments in this file go beyond the paper: robustness of its
// headline numbers across random seeds (E8) and the natural extension of
// budgeted tuning to a parallel evaluation farm (E9).

// SeedVarianceRow is one benchmark's improvement distribution across seeds.
type SeedVarianceRow struct {
	Benchmark    string
	Improvements []float64
	Mean         float64
	CI95         float64
	Min, Max     float64
}

// DefaultSeedVarianceBenchmarks mixes a dramatic winner, a mid-pack
// program, and a small-gain kernel from each suite.
var DefaultSeedVarianceBenchmarks = []string{
	"startup.compiler.compiler", "startup.serial", "startup.scimark.fft",
	"h2", "xalan", "sunflow",
}

// RunSeedVariance (E8) repeats the tuning session across seeds and reports
// the spread: how much of the paper's per-benchmark number is luck.
func RunSeedVariance(benchmarks []string, seeds int, cfg Config) ([]SeedVarianceRow, error) {
	if len(benchmarks) == 0 {
		benchmarks = DefaultSeedVarianceBenchmarks
	}
	if seeds < 2 {
		seeds = 5
	}
	type task struct{ b, s int }
	var tasks []task
	for b := range benchmarks {
		for s := 0; s < seeds; s++ {
			tasks = append(tasks, task{b, s})
		}
	}
	imps := make([]float64, len(tasks))
	err := forEach(len(tasks), cfg.workers(), func(i int) error {
		t := tasks[i]
		p, ok := workload.ByName(benchmarks[t.b])
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %q", benchmarks[t.b])
		}
		out, err := tuneOne(p, "hierarchical", cfg, cfg.subSeed(t.b*1000+t.s))
		if err != nil {
			return err
		}
		imps[i] = out.ImprovementPct
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SeedVarianceRow, len(benchmarks))
	for b, name := range benchmarks {
		sample := make([]float64, seeds)
		for s := 0; s < seeds; s++ {
			sample[s] = imps[b*seeds+s]
		}
		rows[b] = SeedVarianceRow{
			Benchmark:    name,
			Improvements: sample,
			Mean:         stats.Mean(sample),
			CI95:         stats.CI95(sample),
			Min:          stats.Min(sample),
			Max:          stats.Max(sample),
		}
	}
	return rows, nil
}

// RenderSeedVariance renders E8.
func RenderSeedVariance(rows []SeedVarianceRow, seeds int) string {
	t := report.NewTable(
		fmt.Sprintf("E8: improvement stability across %d seeds", seeds),
		"Benchmark", "Mean", "±95% CI", "Min", "Max")
	for _, r := range rows {
		t.AddRow(r.Benchmark,
			fmt.Sprintf("%.1f%%", r.Mean),
			fmt.Sprintf("%.1f", r.CI95),
			fmt.Sprintf("%.1f%%", r.Min),
			fmt.Sprintf("%.1f%%", r.Max))
	}
	return t.String()
}

// ScalingRow is one (benchmark, workers) outcome.
type ScalingRow struct {
	Benchmark      string
	Workers        int
	Trials         int
	ImprovementPct float64
	MakespanMin    float64
}

// RunParallelScaling (E9) tunes with 1..maxWorkers parallel virtual
// evaluation slots under the same wall budget: parallel tuning buys trials,
// and trials buy (diminishing) improvement.
func RunParallelScaling(benchmarks []string, workerCounts []int, cfg Config) ([]ScalingRow, error) {
	if len(benchmarks) == 0 {
		benchmarks = []string{"startup.compiler.compiler", "h2"}
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	type task struct{ b, w int }
	var tasks []task
	for b := range benchmarks {
		for w := range workerCounts {
			tasks = append(tasks, task{b, w})
		}
	}
	rows := make([]ScalingRow, len(tasks))
	err := forEach(len(tasks), cfg.workers(), func(i int) error {
		t := tasks[i]
		p, ok := workload.ByName(benchmarks[t.b])
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %q", benchmarks[t.b])
		}
		searcher, err := core.NewSearcher("hierarchical")
		if err != nil {
			return err
		}
		session := &core.Session{
			Runner:        runner.NewInProcess(jvmsim.New(), p),
			Searcher:      searcher,
			BudgetSeconds: cfg.budget(),
			Reps:          cfg.reps(),
			Seed:          cfg.subSeed(t.b),
			Workers:       workerCounts[t.w],
		}
		out, err := session.Run()
		if err != nil {
			return err
		}
		rows[i] = ScalingRow{
			Benchmark:      benchmarks[t.b],
			Workers:        workerCounts[t.w],
			Trials:         out.Trials,
			ImprovementPct: out.ImprovementPct,
			MakespanMin:    out.Elapsed / 60,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RobustnessRow summarizes the tuner's behaviour over one family of
// generated workloads.
type RobustnessRow struct {
	Kind         string
	N            int
	MeanImp      float64
	MinImp       float64
	MaxImp       float64
	MeanTrials   float64
	DefaultFails int
}

// RunGeneratedRobustness (E10) tunes randomly generated workloads — programs
// the profiles were never calibrated against — and checks the tuner's
// contract: the default configuration always runs, and tuning never ends
// worse than default.
func RunGeneratedRobustness(perKind int, cfg Config) ([]RobustnessRow, error) {
	if perKind < 1 {
		perKind = 5
	}
	kinds := workload.GenKinds()
	type task struct{ k, i int }
	var tasks []task
	for k := range kinds {
		for i := 0; i < perKind; i++ {
			tasks = append(tasks, task{k, i})
		}
	}
	imps := make([]float64, len(tasks))
	trials := make([]int, len(tasks))
	err := forEach(len(tasks), cfg.workers(), func(ti int) error {
		t := tasks[ti]
		p, err := workload.Generate(kinds[t.k], cfg.subSeed(t.k*100+t.i))
		if err != nil {
			return err
		}
		out, err := tuneOne(p, "hierarchical", cfg, cfg.subSeed(ti))
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		imps[ti] = out.ImprovementPct
		trials[ti] = out.Trials
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]RobustnessRow, len(kinds))
	for k, kind := range kinds {
		sample := make([]float64, perKind)
		tr := 0
		for i := 0; i < perKind; i++ {
			sample[i] = imps[k*perKind+i]
			tr += trials[k*perKind+i]
		}
		rows[k] = RobustnessRow{
			Kind:       string(kind),
			N:          perKind,
			MeanImp:    stats.Mean(sample),
			MinImp:     stats.Min(sample),
			MaxImp:     stats.Max(sample),
			MeanTrials: float64(tr) / float64(perKind),
		}
	}
	return rows, nil
}

// RenderGeneratedRobustness renders E10.
func RenderGeneratedRobustness(rows []RobustnessRow) string {
	t := report.NewTable("E10: robustness on generated (uncalibrated) workloads",
		"Family", "N", "Mean improvement", "Min", "Max", "Mean trials")
	for _, r := range rows {
		t.AddRow(r.Kind, r.N,
			fmt.Sprintf("%.1f%%", r.MeanImp),
			fmt.Sprintf("%.1f%%", r.MinImp),
			fmt.Sprintf("%.1f%%", r.MaxImp),
			fmt.Sprintf("%.0f", r.MeanTrials))
	}
	return t.String()
}

// CommonConfigRow compares one program's per-program tuning result with
// its performance under the suite-wide common configuration.
type CommonConfigRow struct {
	Benchmark     string
	PerProgramPct float64 // improvement when tuned individually
	CommonPct     float64 // improvement under the common config
}

// CommonConfigResult holds E11.
type CommonConfigResult struct {
	Suite string
	// CommonFlags is the winning common configuration's command line.
	CommonFlags []string
	// SuiteAvgCommonPct is the suite-mean improvement of the one common
	// config; SuiteAvgPerProgramPct is the mean when every program gets
	// its own tuning run.
	SuiteAvgCommonPct     float64
	SuiteAvgPerProgramPct float64
	Rows                  []CommonConfigRow
}

// RunCommonConfig (E11) searches for a single configuration that serves a
// whole suite, under the same *total* budget per-program tuning gets
// (budget × suite size), then compares per program. The interesting shape:
// a common config captures much of the average win but sacrifices the
// program-specific extremes.
func RunCommonConfig(suite string, cfg Config) (*CommonConfigResult, error) {
	var profiles []*workload.Profile
	switch suite {
	case "specjvm2008":
		profiles = workload.SPECjvm2008()
	case "dacapo":
		profiles = workload.DaCapo()
	default:
		return nil, fmt.Errorf("experiments: unknown suite %q", suite)
	}

	// Per-program tuning (the paper's setup) for the comparison column.
	per, err := RunSuite(suite, cfg)
	if err != nil {
		return nil, err
	}

	// Common-config tuning over the aggregate objective.
	sim := jvmsim.New()
	multi, err := runner.NewMulti(sim, profiles)
	if err != nil {
		return nil, err
	}
	searcher, err := core.NewSearcher("hierarchical")
	if err != nil {
		return nil, err
	}
	session := &core.Session{
		Runner:        multi,
		Searcher:      searcher,
		BudgetSeconds: cfg.budget() * float64(len(profiles)),
		Reps:          cfg.reps(),
		Seed:          cfg.Seed,
	}
	out, err := session.Run()
	if err != nil {
		return nil, err
	}

	res := &CommonConfigResult{
		Suite:                 suite,
		CommonFlags:           out.Best.ExplicitArgs(),
		SuiteAvgCommonPct:     out.ImprovementPct,
		SuiteAvgPerProgramPct: per.AvgImprovement,
	}
	walls := multi.MemberWalls(out.Best, cfg.reps())
	baselines := multi.Baselines()
	for i, p := range profiles {
		row := CommonConfigRow{
			Benchmark:     p.Name,
			PerProgramPct: per.Rows[i].ImprovementPct,
		}
		if walls[i] > 0 {
			row.CommonPct = stats.ImprovementPct(baselines[i], walls[i])
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// NoiseRow is one (noise level, benchmark) outcome of E12.
type NoiseRow struct {
	NoisePct       float64 // relative measurement noise in percent
	Benchmark      string
	ImprovementPct float64 // claimed improvement (noisy means)
	TrueImpPct     float64 // the winner's true (noiseless) improvement
}

// RunNoiseSensitivity (E12) re-runs tuning under increasing measurement
// noise and scores each winner on a noiseless oracle. The interesting
// shape: claimed improvements inflate with noise (the tuner picks lucky
// measurements) while true improvements degrade slowly — quantifying how
// much of a tuning result one should believe at a given noise level.
func RunNoiseSensitivity(benchmarks []string, noisePcts []float64, cfg Config) ([]NoiseRow, error) {
	if len(benchmarks) == 0 {
		benchmarks = []string{"startup.xml.validation", "h2"}
	}
	if len(noisePcts) == 0 {
		noisePcts = []float64{0, 1.5, 5, 10}
	}
	type task struct{ b, n int }
	var tasks []task
	for b := range benchmarks {
		for n := range noisePcts {
			tasks = append(tasks, task{b, n})
		}
	}
	rows := make([]NoiseRow, len(tasks))
	err := forEach(len(tasks), cfg.workers(), func(i int) error {
		t := tasks[i]
		p, ok := workload.ByName(benchmarks[t.b])
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %q", benchmarks[t.b])
		}
		c := cfg
		c.Noise = noisePcts[t.n] / 100
		if c.Noise == 0 {
			c.Noise = -1 // sentinel: tuneOne only overrides when > 0
		}
		out, err := tuneOneNoise(p, cfg, c.Noise, cfg.subSeed(t.b))
		if err != nil {
			return err
		}
		oracle := jvmsim.New()
		oracle.NoiseRelStdDev = 0
		def := oracle.Run(flags.NewConfig(out.Best.Registry()), p, 0).WallSeconds
		tuned := oracle.Run(out.Best, p, 0)
		row := NoiseRow{
			NoisePct:       noisePcts[t.n],
			Benchmark:      benchmarks[t.b],
			ImprovementPct: out.ImprovementPct,
		}
		if !tuned.Failed {
			row.TrueImpPct = stats.ImprovementPct(def, tuned.WallSeconds)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// tuneOneNoise is tuneOne with an explicit noise level (-1 = zero noise).
func tuneOneNoise(p *workload.Profile, cfg Config, noise float64, seed int64) (*core.Outcome, error) {
	s, err := core.NewSearcher("hierarchical")
	if err != nil {
		return nil, err
	}
	sim := jvmsim.New()
	if noise > 0 {
		sim.NoiseRelStdDev = noise
	} else if noise < 0 {
		sim.NoiseRelStdDev = 0
	}
	session := &core.Session{
		Runner:        runner.NewInProcess(sim, p),
		Searcher:      s,
		BudgetSeconds: cfg.budget(),
		Reps:          cfg.reps(),
		Seed:          seed,
	}
	return session.Run()
}

// RenderNoiseSensitivity renders E12.
func RenderNoiseSensitivity(rows []NoiseRow) string {
	t := report.NewTable("E12: tuning under measurement noise (claimed vs true improvement)",
		"Benchmark", "Noise", "Claimed", "True")
	for _, r := range rows {
		t.AddRow(r.Benchmark,
			fmt.Sprintf("%.1f%%", r.NoisePct),
			fmt.Sprintf("%.1f%%", r.ImprovementPct),
			fmt.Sprintf("%.1f%%", r.TrueImpPct))
	}
	return t.String()
}

// RenderCommonConfig renders E11.
func RenderCommonConfig(r *CommonConfigResult) string {
	t := report.NewTable(
		fmt.Sprintf("E11: one common configuration for the %s suite vs per-program tuning", r.Suite),
		"Benchmark", "Per-program", "Common config")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark,
			fmt.Sprintf("%.1f%%", row.PerProgramPct),
			fmt.Sprintf("%.1f%%", row.CommonPct))
	}
	t.AddFooter("average",
		fmt.Sprintf("%.1f%%", r.SuiteAvgPerProgramPct),
		fmt.Sprintf("%.1f%%", r.SuiteAvgCommonPct))
	return t.String()
}

// RenderParallelScaling renders E9.
func RenderParallelScaling(rows []ScalingRow) string {
	t := report.NewTable("E9: parallel tuning farm under a fixed wall budget",
		"Benchmark", "Workers", "Trials", "Improvement", "Makespan(min)")
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Workers, r.Trials,
			fmt.Sprintf("%.1f%%", r.ImprovementPct),
			fmt.Sprintf("%.0f", r.MakespanMin))
	}
	return t.String()
}
