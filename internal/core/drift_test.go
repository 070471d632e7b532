package core

import (
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/drift"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// driftSession builds a drift-enabled session: the workload shifts at the
// scheduled trial, the detector is armed at default sensitivity, and each
// epoch rebuilds the named searcher.
func driftSession(t testing.TB, bench, searcher string, budget float64, seed int64, workers int, sched *jvmsim.PhaseSchedule) *Session {
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("no workload %s", bench)
	}
	sr, err := NewSearcher(searcher)
	if err != nil {
		t.Fatal(err)
	}
	return &Session{
		Runner:        runner.NewInProcess(jvmsim.New(), p),
		Searcher:      sr,
		BudgetSeconds: budget,
		Seed:          seed,
		Workers:       workers,
		Phases:        sched,
		Drift:         &DriftPolicy{},
		NewSearcher: func() Searcher {
			s, err := NewSearcher(searcher)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

func defaultSchedule(at int) *jvmsim.PhaseSchedule {
	return &jvmsim.PhaseSchedule{Shifts: []jvmsim.ScheduledShift{{AtTrial: at, Shift: jvmsim.DefaultShift()}}}
}

// TestDriftOpensEpochAndRecovers is the tentpole's acceptance test: a
// phase-shifting workload under an armed detector produces a re-tuning
// epoch whose post-drift best beats the stale pre-drift winner on the
// post-shift profile.
func TestDriftOpensEpochAndRecovers(t *testing.T) {
	sched := defaultSchedule(40)
	s := driftSession(t, "xalan", "hierarchical", 9000, 7, 3, sched)
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Epochs) < 2 {
		t.Fatalf("drifting session opened no re-tuning epoch: %d epochs", len(out.Epochs))
	}
	first := out.Epochs[0]
	if first.DriftTrial == 0 || first.DriftStat <= 0 {
		t.Fatalf("epoch 0 closed without drift provenance: %+v", first)
	}
	if first.DriftTrial <= 40 {
		t.Fatalf("drift confirmed at trial %d, before the shift at 40", first.DriftTrial)
	}
	last := out.Epochs[len(out.Epochs)-1]
	if last.DriftTrial != 0 {
		t.Fatalf("final epoch carries drift provenance: %+v", last)
	}
	if last.StaleKey != first.BestKey {
		t.Fatalf("epoch %d inherited stale %q, want epoch 0's best %q", last.Epoch, last.StaleKey, first.BestKey)
	}
	if last.Best == nil || last.BestKey == "" {
		t.Fatal("final epoch has no best")
	}
	// Ground truth: measure the stale winner and the re-tuned winner on the
	// post-shift profile with a fresh runner (identical rep allocation for
	// both keys — a fair comparison).
	base, _ := workload.ByName("xalan")
	shifted, err := sched.ProfileAt(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := runner.NewInProcess(jvmsim.New(), shifted)
	staleM := oracle.Measure(first.Best, 5)
	bestM := oracle.Measure(last.Best, 5)
	if bestM.Failed || staleM.Failed {
		t.Fatalf("oracle measurement failed: stale %v best %v", staleM.Failed, bestM.Failed)
	}
	if bestM.Mean >= staleM.Mean {
		t.Fatalf("re-tuned best (%.3f) does not beat stale winner (%.3f) on the post-shift profile",
			bestM.Mean, staleM.Mean)
	}
	// The session's reported best is the post-drift regime's, scored there.
	if out.BestWall != last.BestScore {
		t.Fatalf("session best %.4f != final epoch best %.4f", out.BestWall, last.BestScore)
	}
	if math.IsInf(out.BestWall, 0) || out.BestWall <= 0 {
		t.Fatalf("session best score not finite positive: %v", out.BestWall)
	}
}

// TestDriftDeterministicPerSeedWorkers: two identical drifting sessions
// produce byte-identical epochs, outcomes, and traces.
func TestDriftDeterministicPerSeedWorkers(t *testing.T) {
	run := func() (*Outcome, []byte) {
		tr := telemetry.NewTracer(0)
		s := driftSession(t, "fop", "hierarchical", 6000, 11, 4, defaultSchedule(30))
		s.Trace = tr
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		evs, _ := json.Marshal(tr.Events())
		return out, evs
	}
	a, ta := run()
	b, tb := run()
	ja, _ := json.Marshal(a.Epochs)
	jb, _ := json.Marshal(b.Epochs)
	if string(ja) != string(jb) {
		t.Fatalf("epochs diverged:\n%s\n%s", ja, jb)
	}
	if a.BestWall != b.BestWall || a.Trials != b.Trials || a.Best.Key() != b.Best.Key() {
		t.Fatalf("outcomes diverged: %v/%d vs %v/%d", a.BestWall, a.Trials, b.BestWall, b.Trials)
	}
	if string(ta) != string(tb) {
		t.Fatal("traces diverged")
	}
}

// TestDriftStationaryNoFalsePositives is the λ calibration guard: real
// stationary sessions — every built-in noise source, searcher dynamics,
// flaky retries — must never confirm a drift at default sensitivity. This
// is the session-level counterpart of the synthetic-stream guard in
// internal/drift.
func TestDriftStationaryNoFalsePositives(t *testing.T) {
	for _, searcher := range []string{"hierarchical", "random", "anneal"} {
		for seed := int64(1); seed <= 4; seed++ {
			s := driftSession(t, "h2", searcher, 6000, seed, 2, nil)
			out, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Epochs) != 1 {
				t.Fatalf("%s seed %d: stationary session opened %d epochs (false positive): %+v",
					searcher, seed, len(out.Epochs), out.Epochs)
			}
			if e := out.Epochs[0]; e.DriftTrial != 0 || e.StaleKey != "" || e.Trials != out.Trials {
				t.Fatalf("%s seed %d: stationary epoch record inconsistent: %+v", searcher, seed, e)
			}
		}
	}
}

// TestDriftObliviousSessionKeepsStaleBest: with a phase schedule but no
// detector the tuner is oblivious — it keeps trusting the pre-drift winner
// and reports no epochs. (This is the baseline the re-tuned session is
// evaluated against in EXPERIMENTS.md E18.)
func TestDriftObliviousSessionKeepsStaleBest(t *testing.T) {
	s := driftSession(t, "xalan", "hierarchical", 9000, 7, 3, defaultSchedule(40))
	s.Drift, s.NewSearcher = nil, nil
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Epochs != nil {
		t.Fatalf("oblivious session reported epochs: %+v", out.Epochs)
	}
	// The post-shift workload is uniformly slower, so nothing measured after
	// the shift beats the pre-shift incumbent: the reported best is stale.
	armed := driftSession(t, "xalan", "hierarchical", 9000, 7, 3, defaultSchedule(40))
	aout, err := armed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(aout.Epochs) < 2 {
		t.Fatal("armed twin opened no epoch")
	}
	if out.Best.Key() != aout.Epochs[0].BestKey {
		t.Fatalf("oblivious best %q should equal the armed session's pre-drift best %q",
			out.Best.Key(), aout.Epochs[0].BestKey)
	}
}

// TestDriftEpochPriorsInjected: the per-epoch prior hook's configurations
// are proposed right after the demoted incumbent.
func TestDriftEpochPriorsInjected(t *testing.T) {
	s := driftSession(t, "fop", "hierarchical", 6000, 3, 2, defaultSchedule(30))
	reg := flags.NewRegistry()
	s.Reg = reg
	prior, err := flags.ParseArgs(reg, []string{"-XX:+UseSerialGC"})
	if err != nil {
		t.Fatal(err)
	}
	var gotEpoch, gotPhase int
	s.EpochPriors = func(epoch, phase int) []PriorSample {
		gotEpoch, gotPhase = epoch, phase
		return []PriorSample{{Cfg: prior, Norm: 0.9}}
	}
	s.Trace = telemetry.NewTracer(1 << 16)
	out, rerr := s.Run()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(out.Epochs) < 2 {
		t.Fatal("no epoch opened")
	}
	if gotEpoch != 1 || gotPhase != 1 {
		t.Fatalf("EpochPriors called with (epoch=%d, phase=%d), want (1, 1)", gotEpoch, gotPhase)
	}
	// The injected prior was measured in the new epoch: the searcher
	// observed it after the drift event.
	if n := s.Trace.Dropped(); n > 0 {
		t.Fatalf("the trace dropped %d events", n)
	}
	drifted, found := false, false
	for _, ev := range s.Trace.Events() {
		drifted = drifted || ev.Kind == telemetry.EvDrift
		found = found || (drifted && ev.Kind == telemetry.EvObserve && ev.Key == prior.Key())
	}
	if !found {
		t.Fatalf("injected prior %q never measured after the drift", prior.Key())
	}
}

// TestDriftValidation: drift without a searcher factory, and shifting
// schedules on a runner without SetPhase, fail fast.
func TestDriftValidation(t *testing.T) {
	s := driftSession(t, "fop", "random", 1000, 1, 1, defaultSchedule(10))
	s.NewSearcher = nil
	if _, err := s.Run(); err == nil {
		t.Error("Drift without NewSearcher should error")
	}

	s2 := driftSession(t, "fop", "random", 1000, 1, 1, defaultSchedule(10))
	s2.Runner = phaselessRunner{s2.Runner}
	if _, err := s2.Run(); err == nil {
		t.Error("phase schedule on a runner without SetPhase should error")
	}

	s3 := driftSession(t, "fop", "random", 1000, 1, 1, nil)
	s3.Drift = &DriftPolicy{Detector: drift.Config{Lambda: math.NaN()}}
	if _, err := s3.Run(); err == nil {
		t.Error("invalid detector config should error")
	}
}

// phaselessRunner hides the embedded runner's SetPhase.
type phaselessRunner struct{ runner.Runner }

// TestDriftKillAndResumeMidEpoch: a drifting session killed after the
// re-tune transition resumes to the byte-identical outcome — including the
// epoch history — without re-invoking the EpochPriors hook (the recorded
// priors are replayed verbatim; the transfer store may have changed since).
//
// The surrogate credits every explicit assignment of a prior, and its
// incumbents hold explicit defaults that the recorded args (the canonical
// form) leave out: the live epoch must see the priors in that form too,
// or the resumed session makes different choices.
func TestDriftKillAndResumeMidEpoch(t *testing.T) {
	for _, searcher := range []string{"hierarchical", "surrogate"} {
		t.Run(searcher, func(t *testing.T) { driftKillAndResumeMidEpoch(t, searcher) })
	}
}

func driftKillAndResumeMidEpoch(t *testing.T, searcher string) {
	const (
		budget  = 9000.0
		seed    = int64(7)
		workers = 3
		killAt  = 60 // past the drift confirmation (~trial 44), mid-epoch 1
	)
	sched := defaultSchedule(40)
	reg := flags.NewRegistry()
	prior, err := flags.ParseArgs(reg, []string{"-XX:+UseSerialGC"})
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Session {
		s := driftSession(t, "xalan", searcher, budget, seed, workers, sched)
		s.Reg = reg
		s.EpochPriors = func(epoch, phase int) []PriorSample {
			return []PriorSample{{Cfg: prior, Norm: 0.9}}
		}
		return s
	}

	plain := build()
	uninterrupted, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(uninterrupted.Epochs) < 2 {
		t.Fatalf("no epoch opened before the kill point: %d", len(uninterrupted.Epochs))
	}
	if dt := uninterrupted.Epochs[0].DriftTrial; dt >= killAt {
		t.Fatalf("drift at trial %d, kill at %d would land pre-epoch", dt, killAt)
	}

	// Kill: checkpoint every round, cancel once killAt trials are in.
	path := filepath.Join(t.TempDir(), "drift.ckpt")
	s := build()
	keeper := checkpoint.NewKeeper(path, 1, nil)
	s.Checkpoint = keeper
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Ctx = ctx
	s.OnProgress = func(tp TracePoint) {
		if tp.Trial >= killAt {
			cancel()
		}
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("session survived the kill")
	}
	if err := keeper.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Epochs) == 0 {
		t.Fatal("mid-epoch checkpoint records no epochs")
	}
	if len(snap.Epochs[0].Priors) != 2 {
		t.Fatalf("epoch record has %d priors, want demoted incumbent + injected prior", len(snap.Epochs[0].Priors))
	}

	// Resume: the hook must not be consulted again — replay uses the
	// recorded priors even though the "store" now answers differently.
	resumed := build()
	resumed.EpochPriors = func(epoch, phase int) []PriorSample {
		t.Fatalf("EpochPriors re-invoked on resume (epoch %d)", epoch)
		return nil
	}
	resumed.Resume = snap
	out, err := resumed.Run()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}

	if got, want := outcomeFingerprint(t, resumed, out), outcomeFingerprint(t, plain, uninterrupted); got != want {
		t.Fatalf("resumed outcome differs:\nresumed:       %s\nuninterrupted: %s", got, want)
	}
	je, _ := json.Marshal(out.Epochs)
	jw, _ := json.Marshal(uninterrupted.Epochs)
	if string(je) != string(jw) {
		t.Fatalf("resumed epochs differ:\n%s\n%s", je, jw)
	}
}

// TestDriftResumeChecksFingerprint: a drifting checkpoint refuses to
// resume stationary, and vice versa.
func TestDriftResumeChecksFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drift.ckpt")
	s := driftSession(t, "xalan", "hierarchical", 9000, 7, 3, defaultSchedule(40))
	keeper := checkpoint.NewKeeper(path, 1, nil)
	s.Checkpoint = keeper
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Ctx = ctx
	s.OnProgress = func(tp TracePoint) {
		if tp.Trial >= 20 {
			cancel()
		}
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("session survived the kill")
	}
	if err := keeper.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	stationary := driftSession(t, "xalan", "hierarchical", 9000, 7, 3, nil)
	stationary.Drift = nil
	stationary.NewSearcher = nil
	stationary.Resume = snap
	if _, err := stationary.Run(); err == nil || !strings.Contains(err.Error(), "drift mismatch") {
		t.Fatalf("drifting checkpoint resumed stationary: %v", err)
	}

	weaker := driftSession(t, "xalan", "hierarchical", 9000, 7, 3, defaultSchedule(40))
	weaker.Drift = &DriftPolicy{Detector: drift.Config{Lambda: 2 * drift.DefaultLambda}}
	weaker.Resume = snap
	if _, err := weaker.Run(); err == nil || !strings.Contains(err.Error(), "drift mismatch") {
		t.Fatalf("checkpoint resumed under a different sensitivity: %v", err)
	}
}

// BenchmarkEpochRetune measures the full re-tune path: a drifting session
// including detection, demotion, searcher rebuild, and the recovery search.
func BenchmarkEpochRetune(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := driftSession(b, "fop", "hierarchical", 4000, int64(i), 2, defaultSchedule(30))
		out, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Epochs) < 2 {
			b.Fatal("no epoch opened")
		}
	}
}
