package main

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/faultinject"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Fakes with every combination of the optional interfaces. Each records
// the calls that reach it, so a test can tell forwarding from shadowing.

type calls map[string]int

type fakeRunner struct{ c calls }

func (f fakeRunner) Measure(*flags.Config, int) runner.Measurement {
	f.c["Measure"]++
	return runner.Measurement{}
}
func (f fakeRunner) Workload() *workload.Profile { return nil }
func (f fakeRunner) Elapsed() float64            { return 0 }

type fakeBatch struct{ c calls }

func (f fakeBatch) MeasureBatch(cfgs []*flags.Config, _ int) []runner.Measurement {
	f.c["MeasureBatch"]++
	return make([]runner.Measurement, len(cfgs))
}

type fakeSnap struct{ c calls }

func (f fakeSnap) SnapshotState() ([]byte, error) { f.c["SnapshotState"]++; return nil, nil }
func (f fakeSnap) RestoreState([]byte) error      { f.c["RestoreState"]++; return nil }

type fakePhase struct{ c calls }

func (f fakePhase) SetPhase(int, jvmsim.PhaseShift) error { f.c["SetPhase"]++; return nil }

func fakeRunners(c calls) []runner.Runner {
	r, b, s, p := fakeRunner{c}, fakeBatch{c}, fakeSnap{c}, fakePhase{c}
	return []runner.Runner{
		r,
		struct {
			fakeRunner
			fakeBatch
		}{r, b},
		struct {
			fakeRunner
			fakeSnap
		}{r, s},
		struct {
			fakeRunner
			fakePhase
		}{r, p},
		struct {
			fakeRunner
			fakeBatch
			fakeSnap
		}{r, b, s},
		struct {
			fakeRunner
			fakeBatch
			fakePhase
		}{r, b, p},
		struct {
			fakeRunner
			fakeSnap
			fakePhase
		}{r, s, p},
		struct {
			fakeRunner
			fakeBatch
			fakeSnap
			fakePhase
		}{r, b, s, p},
	}
}

func TestRunnerWrapperForwardsExactly(t *testing.T) {
	for shape := 0; shape < 8; shape++ {
		c := calls{}
		inner := fakeRunners(c)[shape]
		w := wrapRunner(inner, &layers{})
		_, innerB := inner.(runner.BatchMeasurer)
		_, innerS := inner.(runner.StateSnapshotter)
		_, innerP := inner.(runner.PhaseSetter)
		bm, wrapB := w.(runner.BatchMeasurer)
		ss, wrapS := w.(runner.StateSnapshotter)
		ps, wrapP := w.(runner.PhaseSetter)
		if innerB != wrapB || innerS != wrapS || innerP != wrapP {
			t.Fatalf("%T: wrapper has batch/snapshot/phase %v/%v/%v, inner %v/%v/%v",
				inner, wrapB, wrapS, wrapP, innerB, innerS, innerP)
		}
		w.Measure(nil, 1)
		want := calls{"Measure": 1}
		if wrapB {
			bm.MeasureBatch([]*flags.Config{nil, nil}, 1)
			want["MeasureBatch"] = 1
		}
		if wrapS {
			ss.SnapshotState()
			ss.RestoreState(nil)
			want["SnapshotState"], want["RestoreState"] = 1, 1
		}
		if wrapP {
			ps.SetPhase(1, jvmsim.PhaseShift{})
			want["SetPhase"] = 1
		}
		if !equalCalls(c, want) {
			t.Fatalf("%T: calls reaching inner = %v, want %v", inner, c, want)
		}
	}
}

func equalCalls(a, b calls) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// The wrapped runner keeps the checkpoint identity of the runner it wraps.
func TestRunnerWrapperKeepsFingerprint(t *testing.T) {
	prof, _ := workload.ByName("fop")
	ip := runner.NewInProcess(jvmsim.New(), prof)
	plan, err := faultinject.ParsePlan(durablePlan)
	if err != nil {
		t.Fatal(err)
	}
	chaos := faultinject.New(ip, plan, 1)
	for inner, want := range map[runner.Runner]string{
		ip:    "*runner.InProcess",
		chaos: "*faultinject.ChaosRunner(" + chaos.PlanString() + ")",
	} {
		w := wrapRunner(inner, &layers{}).(interface{ DeterminismFingerprint() string })
		if got := w.DeterminismFingerprint(); got != want {
			t.Errorf("fingerprint %q, want %q", got, want)
		}
	}
}

type fakeSearcher struct{ c calls }

func (f fakeSearcher) Name() string { return "fake" }
func (f fakeSearcher) Propose(*core.Context) *flags.Config {
	f.c["Propose"]++
	return nil
}
func (f fakeSearcher) Observe(*core.Context, *flags.Config, runner.Measurement) { f.c["Observe"]++ }

type fakeProposeBatch struct{ c calls }

func (f fakeProposeBatch) ProposeBatch(*core.Context, int) []*flags.Config {
	f.c["ProposeBatch"]++
	return nil
}

type fakePreload struct{ c calls }

func (f fakePreload) PreloadPriors([]core.PriorSample) { f.c["PreloadPriors"]++ }

func TestSearcherWrapperForwardsExactly(t *testing.T) {
	for shape := 0; shape < 4; shape++ {
		c := calls{}
		s, b, p := fakeSearcher{c}, fakeProposeBatch{c}, fakePreload{c}
		inner := []core.Searcher{
			s,
			struct {
				fakeSearcher
				fakeProposeBatch
			}{s, b},
			struct {
				fakeSearcher
				fakePreload
			}{s, p},
			struct {
				fakeSearcher
				fakeProposeBatch
				fakePreload
			}{s, b, p},
		}[shape]
		w := wrapSearcher(inner, &layers{})
		_, innerB := inner.(core.BatchSearcher)
		_, innerP := inner.(core.PriorPreloader)
		bs, wrapB := w.(core.BatchSearcher)
		pl, wrapP := w.(core.PriorPreloader)
		if innerB != wrapB || innerP != wrapP {
			t.Fatalf("%T: wrapper has batch/preload %v/%v, inner %v/%v", inner, wrapB, wrapP, innerB, innerP)
		}
		w.Propose(nil)
		w.Observe(nil, nil, runner.Measurement{})
		want := calls{"Propose": 1, "Observe": 1}
		if wrapB {
			bs.ProposeBatch(nil, 2)
			want["ProposeBatch"] = 1
		}
		if wrapP {
			pl.PreloadPriors(nil)
			want["PreloadPriors"] = 1
		}
		if w.Name() != "fake" || !equalCalls(c, want) {
			t.Fatalf("%T: name %q, calls reaching inner = %v, want %v", inner, w.Name(), c, want)
		}
	}
}

type fakeEvaluator struct{ c calls }

func (f fakeEvaluator) Name() string { return "fake" }
func (f fakeEvaluator) Evaluate(context.Context, *dispatch.TrialRequest) (*dispatch.TrialResult, error) {
	f.c["Evaluate"]++
	return nil, nil
}

type fakeEvalBatch struct{ c calls }

func (f fakeEvalBatch) EvaluateBatch(context.Context, *dispatch.BatchRequest) (*dispatch.BatchResult, error) {
	f.c["EvaluateBatch"]++
	return nil, nil
}

type fakePinger struct{ c calls }

func (f fakePinger) Ping(context.Context) error { f.c["Ping"]++; return nil }

func TestEvaluatorWrapperForwardsExactly(t *testing.T) {
	for shape := 0; shape < 4; shape++ {
		c := calls{}
		e, b, p := fakeEvaluator{c}, fakeEvalBatch{c}, fakePinger{c}
		inner := []dispatch.Evaluator{
			e,
			struct {
				fakeEvaluator
				fakeEvalBatch
			}{e, b},
			struct {
				fakeEvaluator
				fakePinger
			}{e, p},
			struct {
				fakeEvaluator
				fakeEvalBatch
				fakePinger
			}{e, b, p},
		}[shape]
		w := wrapEvaluator(inner, &layers{})
		_, innerB := inner.(dispatch.BatchEvaluator)
		_, innerP := inner.(dispatch.Pinger)
		be, wrapB := w.(dispatch.BatchEvaluator)
		pg, wrapP := w.(dispatch.Pinger)
		if innerB != wrapB || innerP != wrapP {
			t.Fatalf("%T: wrapper has batch/ping %v/%v, inner %v/%v", inner, wrapB, wrapP, innerB, innerP)
		}
		w.Evaluate(context.Background(), &dispatch.TrialRequest{})
		want := calls{"Evaluate": 1}
		if wrapB {
			be.EvaluateBatch(context.Background(), &dispatch.BatchRequest{})
			want["EvaluateBatch"] = 1
		}
		if wrapP {
			pg.Ping(context.Background())
			want["Ping"] = 1
		}
		if w.Name() != "fake" || !equalCalls(c, want) {
			t.Fatalf("%T: name %q, calls reaching inner = %v, want %v", inner, w.Name(), c, want)
		}
	}
}

// TestTracedMatchesUntraced holds the traced assembly to hotspot.TuneContext:
// for one session of every workload the result bytes, trace bytes and (for
// durable-warm) the transfer store left behind are identical, and the
// traced run actually exercised the seams the workload exists for.
func TestTracedMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs whole tuning sessions")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			f, err := workloads[name](filepath.Join(t.TempDir(), "fx"), 7, true)
			if err != nil {
				t.Fatal(err)
			}
			defer f.close()
			f.specs = f.specs[:1]
			if err := f.prime(); err != nil {
				t.Fatal(err)
			}

			if err := f.prepare(0); err != nil {
				t.Fatal(err)
			}
			plain := f.options(f.specs[0])
			_, want, err := tuneDigest(plain)
			if err != nil {
				t.Fatal(err)
			}
			var wantStore map[string][]byte
			if f.storeDir != "" {
				wantStore, _ = snapshotDir(f.storeDir)
			}

			if err := f.prepare(0); err != nil {
				t.Fatal(err)
			}
			l := &layers{}
			if f.node != nil {
				f.node.seams.rec.Store(l)
			}
			traced := f.options(f.specs[0])
			saved, err := tracedTune(traced, l)
			if err != nil {
				t.Fatal(err)
			}
			got, err := digestOf(saved.Write, traced.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("traced outcome %+v differs from untraced %+v", got, want)
			}
			if f.storeDir != "" {
				gotStore, _ := snapshotDir(f.storeDir)
				for k := range wantStore {
					if !bytes.Equal(gotStore[k], wantStore[k]) {
						t.Fatalf("store file %s differs after the traced session", k)
					}
				}
			}
			if l.propose.calls == 0 || l.measure.calls == 0 || l.observe.calls == 0 {
				t.Fatalf("search seams not reached: %d proposals, %d measures, %d observations",
					l.propose.calls, l.measure.calls, l.observe.calls)
			}
			switch name {
			case fleetBatch16:
				// One POST per round, not per trial: the runner wrapper kept
				// BatchMeasurer and the evaluator wrapper kept BatchEvaluator.
				if len(l.rtts) == 0 || l.rttTrials <= 2*len(l.rtts) || l.handle.calls != len(l.rtts) {
					t.Fatalf("%d round trips for %d trials (%d handled): batching lost", len(l.rtts), l.rttTrials, l.handle.calls)
				}
			case durableWarm:
				if l.snapshot.calls == 0 || l.replayed == 0 || l.xEntries != storeEntries || l.xAppend == 0 {
					t.Fatalf("durability seams not reached: snapshots %d, replayed %d, entries %d, append %v",
						l.snapshot.calls, l.replayed, l.xEntries, l.xAppend)
				}
			}
		})
	}
}
