package jvmsim

import (
	"testing"

	"repro/internal/flags"
	"repro/internal/workload"
)

// Simulator evaluation is the unit of work the tuner's budget buys; these
// benchmarks price a single run, a repetition batch, and a population batch
// so the BENCH_*.json trajectory catches regressions in the per-trial cost.

func benchSimConfig(b *testing.B) (*Simulator, *flags.Config, *workload.Profile) {
	b.Helper()
	p, ok := workload.ByName("xalan")
	if !ok {
		b.Fatal("no workload")
	}
	c := flags.NewConfig(flags.NewRegistry())
	c.SetBool("UseG1GC", true)
	c.SetInt("MaxHeapSize", 2<<30)
	c.SetInt("MaxGCPauseMillis", 50)
	c.SetInt("CompileThreshold", 2500)
	return New(), c, p
}

func BenchmarkSimulatorRun(b *testing.B) {
	s, c, p := benchSimConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := s.Run(c, p, i); r.Failed {
			b.Fatal(r.FailureMessage)
		}
	}
}

func BenchmarkSimulatorRunReps(b *testing.B) {
	s, c, p := benchSimConfig(b)
	const reps = 5
	var buf [reps]Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := s.RunReps(c, p, i*reps, reps, buf[:0])
		if rs[0].Failed {
			b.Fatal(rs[0].FailureMessage)
		}
	}
}
