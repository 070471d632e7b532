package runner

import (
	"testing"

	"repro/internal/flags"
)

// crashConfig returns a configuration that OOMs the h2 workload: a heap far
// below its ~238 MB live set.
func crashConfig() *flags.Config {
	cfg := flags.NewConfig(flags.NewRegistry())
	cfg.SetInt("MaxHeapSize", 128<<20)
	cfg.SetInt("InitialHeapSize", 64<<20)
	return cfg
}

func TestMultiCachesFailures(t *testing.T) {
	m := newMulti(t, "startup.scimark.monte_carlo", "h2")
	first := m.Measure(crashConfig(), 1)
	if !first.Failed {
		t.Fatalf("expected the aggregate to fail, got %+v", first)
	}
	elapsed := m.Elapsed()
	second := m.Measure(crashConfig(), 1)
	if !second.FromCache || second.CostSeconds != 0 || m.Elapsed() != elapsed {
		t.Errorf("multi runner must cache failures at zero cost: %+v", second)
	}
	if !second.Failed {
		t.Error("cached replay must preserve the aggregate failure")
	}
}
