package runner_test

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

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

// TestRunBatchMatchesRun holds the lockstep driver to the one-measurement
// loop: a round through RunBatch — a cache hit, a clean trial, a trial
// whose first attempt flakes, one that flakes on every attempt and one
// that is condemned — returns the measurements, clock, state bytes,
// runner_* series and trace events that Run gives the same trials one by
// one, and hands place every pending attempt of a retry round at once.
// Under a fault source it does the same with the chaos_* series and the
// launch counters, and places only the attempts the source does not fail.
func TestRunBatchMatchesRun(t *testing.T) {
	reg := flags.NewRegistry()
	cfgs := make([]*flags.Config, 5)
	for i := range cfgs {
		cfgs[i] = flags.NewConfig(reg)
		cfgs[i].SetInt("MaxHeapSize", int64(256+64*i)<<20)
	}
	const cached, clean, flakyOnce, flaky, condemned = 0, 1, 2, 3, 4
	kind := make(map[string]int)
	for i, c := range cfgs {
		kind[c.Key()] = i
	}
	attempt := func(key string, repBase, reps int) runner.Measurement {
		m := runner.Measurement{Key: key, CostSeconds: float64(reps) + float64(repBase)/8}
		switch k := kind[key]; {
		case k == flaky || (k == flakyOnce && repBase == 0):
			m.Failed, m.Failure = true, runner.LaunchFlakeFailure
		case k == condemned:
			m.Failed, m.Failure = true, jvmsim.OOMFailure
		default:
			for r := 0; r < reps; r++ {
				m.Walls = append(m.Walls, 10+float64(repBase+r))
			}
			m.Mean = 10 + float64(repBase) + float64(reps-1)/2
		}
		return m
	}

	type result struct {
		ms     []runner.Measurement
		state  []byte
		series map[string]float64
		events []telemetry.Event
	}
	run := func(batch bool, faults runner.Faults) (result, []int) {
		h := &runner.Harness{Telemetry: telemetry.New(), Trace: telemetry.NewTracer(0), Faults: faults}
		measure := func(c *flags.Config) runner.Measurement {
			return h.Run(c, 2, 0, true, func(repBase, reps int) runner.Measurement {
				return attempt(c.Key(), repBase, reps)
			})
		}
		measure(cfgs[cached])
		var ms []runner.Measurement
		var rounds []int
		if batch {
			ms = h.RunBatch(cfgs, 2, 0, true, func(round []*runner.Attempt) {
				rounds = append(rounds, len(round))
				for _, a := range round {
					a.M = attempt(a.Key, a.RepBase, a.Reps)
				}
			})
		} else {
			for _, c := range cfgs {
				ms = append(ms, measure(c))
			}
		}
		for _, c := range cfgs {
			h.Trace.Commit(c.Key(), h.Elapsed())
		}
		state, err := h.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return result{ms, state, h.Telemetry.Snapshot(), h.Trace.Events()}, rounds
	}

	for _, tc := range []struct {
		name   string
		faults runner.Faults
		rounds []int
	}{
		{"fault-free", nil, []int{4, 2, 1}},
		// The clean trial's first launch fails by injection and its second
		// spikes; the flaky-once trial's first result stalls and its
		// second launch hangs; the condemned trial's draw is suppressed.
		{"faults", scriptedFaults{kind, map[int][]*runner.Fault{
			clean: {{Kind: "launch", Failure: runner.LaunchFlakeFailure, Cost: 0.5}, {Kind: "spike", Scale: 3}},
			flakyOnce: {{Kind: "straggle", Stall: 4}, {Kind: "hang", Failure: runner.InjectedHangFailure,
				Cost: 7, Hang: time.Millisecond}},
			condemned: {{Suppressed: true}},
		}}, []int{3, 2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := run(false, tc.faults)
			got, rounds := run(true, tc.faults)
			if !reflect.DeepEqual(rounds, tc.rounds) {
				t.Errorf("retry rounds placed %v attempts, want %v", rounds, tc.rounds)
			}
			if !got.ms[cached].FromCache || got.ms[flakyOnce].Attempts < 2 || !got.ms[flaky].Transient ||
				got.ms[condemned].Failure != jvmsim.OOMFailure {
				t.Errorf("verdicts: %+v", got.ms)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("RunBatch diverges from Run:\n%+v\nvs\n%+v", got, want)
			}
			if tc.faults == nil {
				return
			}
			if m := got.ms[clean]; m.Attempts != 2 || m.Flakes != 1 || m.Mean != 3*(10+0.5) {
				t.Errorf("clean trial: want a flake, then a spiked run: %+v", m)
			}
			if n := got.series[`chaos_faults_total{kind="hang"}`]; n != 1 || got.series["chaos_suppressed_total"] != 1 {
				t.Errorf("chaos series: %v", got.series)
			}
			segs, err := runner.DecodeState(got.state)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) != 1 || len(segs[0].Launches) != len(cfgs) {
				t.Errorf("state holds no launch counter for every trial: %+v", segs)
			}
		})
	}
}

// scriptedFaults draws script[kind of sk][n], and nothing past its end.
type scriptedFaults struct {
	kind   map[string]int
	script map[int][]*runner.Fault
}

func (f scriptedFaults) Draw(sk string, n int) *runner.Fault {
	if s := f.script[f.kind[sk]]; n < len(s) {
		return s[n]
	}
	return nil
}

func (scriptedFaults) MinAttempts() int { return 3 }
