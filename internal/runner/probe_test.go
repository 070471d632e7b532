package runner_test

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/evald"
	"repro/internal/faultinject"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestProbePairEveryRunner: -XX:+UseG1GC and the same line with an
// explicit -XX:+UseParallelGC differ only in an explicit default, and the
// VM refuses the second with "conflicting collector combinations". Every
// runner — in-process, a jvmsim subprocess, the multi-workload runner,
// the fleet pool against a loopback evald unbatched and at batch 16, and
// the chaos wrapper — must key the two apart, never answer one from the
// other's cache entry, and measure them differently, in either order.
func TestProbePairEveryRunner(t *testing.T) {
	p, _ := workload.ByName("h2")
	reg := flags.NewRegistry()
	parse := func(args ...string) *flags.Config {
		c, err := flags.ParseArgs(reg, args)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	valid := parse("-XX:+UseG1GC")
	invalid := parse("-XX:+UseG1GC", "-XX:+UseParallelGC")
	if valid.Key() == invalid.Key() {
		t.Errorf("the probe pair shares the key %q", valid.Key())
	}

	pool := func(batch int) func(t *testing.T) runner.Runner {
		return func(t *testing.T) runner.Runner {
			ts := httptest.NewServer(evald.New(evald.Config{Node: "n0"}))
			t.Cleanup(ts.Close)
			rem, err := dispatch.NewSecureRemote(strings.TrimPrefix(ts.URL, "http://"), nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := dispatch.NewPool(p, rem)
			if err != nil {
				t.Fatal(err)
			}
			r.Batch = batch
			t.Cleanup(func() { r.Close() })
			return r
		}
	}
	runners := []struct {
		name  string
		build func(t *testing.T) runner.Runner
	}{
		{"InProcess", func(t *testing.T) runner.Runner { return runner.NewInProcess(jvmsim.New(), p) }},
		{"Subprocess", func(t *testing.T) runner.Runner { return runner.NewSubprocess(runner.JvmsimBinary(t), p) }},
		{"Multi", func(t *testing.T) runner.Runner {
			r, err := runner.NewMulti(jvmsim.New(), []*workload.Profile{p})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"Pool", pool(0)},
		{"PoolBatch16", pool(16)},
		{"Chaos", func(t *testing.T) runner.Runner {
			plan, err := faultinject.ParsePlan("launch=0.3")
			if err != nil {
				t.Fatal(err)
			}
			return faultinject.New(runner.NewInProcess(jvmsim.New(), p), plan, 1)
		}},
	}
	for _, rc := range runners {
		for _, order := range []struct {
			name  string
			first *flags.Config
		}{{"valid-first", valid}, {"invalid-first", invalid}} {
			t.Run(rc.name+"/"+order.name, func(t *testing.T) {
				r := rc.build(t)
				pair := []*flags.Config{valid.Clone(), invalid.Clone()}
				if order.first == invalid {
					pair[0], pair[1] = pair[1], pair[0]
				}
				var got []runner.Measurement
				if bm, ok := r.(runner.BatchMeasurer); ok && rc.name == "PoolBatch16" {
					got = bm.MeasureBatch(pair, 2)
				} else {
					for _, c := range pair {
						got = append(got, r.Measure(c, 2))
					}
				}
				for i, c := range pair {
					m := got[i]
					if m.Key != c.Key() || m.FromCache {
						t.Fatalf("%q measured as key %q (from cache %v)", c.Key(), m.Key, m.FromCache)
					}
					checkVerdict(t, c.Key() == valid.Key(), m)
					// A replay answers from the config's own entry.
					again := r.Measure(c.Clone(), 2)
					if !again.FromCache || again.Key != c.Key() || again.Failed != m.Failed || again.Mean != m.Mean {
						t.Fatalf("%q replayed %+v, want its own cached %+v", c.Key(), again, m)
					}
				}
			})
		}
	}
}

// checkVerdict demands a clean measurement of the valid probe and the
// collector conflict for the invalid one.
func checkVerdict(t *testing.T, isValid bool, m runner.Measurement) {
	t.Helper()
	if isValid {
		if m.Failed || len(m.Walls) != 2 {
			t.Fatalf("valid probe failed: %+v", m)
		}
		return
	}
	if !m.Failed || !strings.Contains(m.FailureMessage, "conflicting collector combinations") {
		t.Fatalf("invalid probe measured as %+v, want the collector conflict", m)
	}
}
