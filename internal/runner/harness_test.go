package runner_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// harnessed is one caching runner under the harness contract: the runner,
// its embedded harness, and its DisableCache switch when it offers one.
type harnessed struct {
	run     runner.Runner
	h       *runner.Harness
	disable *bool
}

// TestHarnessContract runs one Measure sequence through every caching
// runner — a fresh measurement, its zero-cost cache replay, a condemned
// failure and its replay at fewer reps, and DisableCache where offered —
// and demands the same verdicts, costs, runner_* series and trace events
// from each: the rules live in runner.Harness, so the runners cannot
// drift apart. Only InProcess and the pool follow phase shifts.
func TestHarnessContract(t *testing.T) {
	p, _ := workload.ByName("h2")
	reg := flags.NewRegistry()
	good := flags.NewConfig(reg)
	good.SetInt("MaxHeapSize", 1<<30)
	// A heap far below h2's ~238 MB live set: an OOM on every run.
	bad := flags.NewConfig(reg)
	bad.SetInt("MaxHeapSize", 128<<20)
	bad.SetInt("InitialHeapSize", 64<<20)

	runners := []struct {
		name  string
		build func(t *testing.T) harnessed
	}{
		{"InProcess", func(t *testing.T) harnessed {
			r := runner.NewInProcess(jvmsim.New(), p)
			return harnessed{r, &r.Harness, &r.DisableCache}
		}},
		{"Subprocess", func(t *testing.T) harnessed {
			r := runner.NewSubprocess(runner.JvmsimBinary(t), p)
			return harnessed{r, &r.Harness, nil}
		}},
		{"Multi", func(t *testing.T) harnessed {
			r, err := runner.NewMulti(jvmsim.New(), []*workload.Profile{p})
			if err != nil {
				t.Fatal(err)
			}
			return harnessed{r, &r.Harness, nil}
		}},
		{"Pool", func(t *testing.T) harnessed {
			r, err := dispatch.NewPool(p, dispatch.NewLocal(p, "n0"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return harnessed{r, &r.Harness, &r.DisableCache}
		}},
	}

	type outcome struct {
		costs  []float64
		series map[string]float64
		kinds  []string
	}
	got := make(map[string]outcome)
	for _, rc := range runners {
		name := rc.name
		t.Run(name, func(t *testing.T) {
			hr := rc.build(t)
			_, shifts := hr.run.(runner.PhaseSetter)
			if want := name == "InProcess" || name == "Pool"; shifts != want {
				t.Errorf("implements runner.PhaseSetter = %v, want %v", shifts, want)
			}
			tel, tr := telemetry.New(), telemetry.NewTracer(0)
			hr.h.Telemetry, hr.h.Trace = tel, tr
			measure := func(cfg *flags.Config, reps int) runner.Measurement {
				m := hr.run.Measure(cfg, reps)
				tr.Commit(cfg.Key(), hr.run.Elapsed())
				return m
			}

			fresh := measure(good, 2)
			if fresh.Failed || fresh.FromCache || fresh.Attempts != 1 || len(fresh.Walls) != 2 || fresh.CostSeconds <= 0 {
				t.Fatalf("fresh measurement: %+v", fresh)
			}
			if math.Abs(hr.run.Elapsed()-fresh.CostSeconds) > 1e-6 {
				t.Errorf("clock %g, want the measurement cost %g", hr.run.Elapsed(), fresh.CostSeconds)
			}
			elapsed := hr.run.Elapsed()
			replay := measure(good.Clone(), 2)
			if !replay.FromCache || replay.CostSeconds != 0 || replay.Mean != fresh.Mean || hr.run.Elapsed() != elapsed {
				t.Errorf("cache replay must repeat the aggregate at zero cost: %+v", replay)
			}

			condemned := measure(bad, 2)
			if !condemned.Failed || condemned.Failure != jvmsim.OOMFailure || condemned.Transient || condemned.FromCache {
				t.Fatalf("want a condemning OOM, got %+v", condemned)
			}
			// Failures carry no walls, yet a cached one answers a
			// re-proposal at any rep count: re-running a known crash would
			// only drain the budget.
			elapsed = hr.run.Elapsed()
			for _, reps := range []int{2, 1} {
				again := measure(bad.Clone(), reps)
				if !again.FromCache || again.CostSeconds != 0 || hr.run.Elapsed() != elapsed ||
					!again.Failed || again.Failure != condemned.Failure {
					t.Errorf("a condemned config must replay its verdict at zero cost (reps %d): %+v", reps, again)
				}
			}

			series := make(map[string]float64)
			for k, v := range tel.Snapshot() {
				if strings.HasPrefix(k, "runner_") {
					series[k] = v
				}
			}
			var kinds []string
			for _, ev := range tr.Events() {
				kinds = append(kinds, ev.Kind)
			}
			got[name] = outcome{[]float64{fresh.CostSeconds, condemned.CostSeconds}, series, kinds}

			if hr.disable == nil {
				return
			}
			*hr.disable = true
			if m := measure(good, 2); m.FromCache || m.CostSeconds <= 0 || hr.run.Elapsed() <= elapsed {
				t.Errorf("DisableCache must measure afresh and charge the clock: %+v", m)
			}
			if n := tel.Counter("runner_measures_total").Value(); n != 3 {
				t.Errorf("runner_measures_total = %d after an uncached measurement, want 3", n)
			}
		})
	}

	want := got["InProcess"]
	if w := []string{telemetry.EvAttempt, telemetry.EvCacheHit, telemetry.EvAttempt,
		telemetry.EvCondemned, telemetry.EvCacheHit, telemetry.EvCacheHit}; !reflect.DeepEqual(want.kinds, w) {
		t.Errorf("InProcess trace kinds %v, want %v", want.kinds, w)
	}
	for name, o := range got {
		if !reflect.DeepEqual(o, want) {
			t.Errorf("%s diverges from InProcess:\n%+v\nvs\n%+v", name, o, want)
		}
	}
}
