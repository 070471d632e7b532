package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// runToCheckpoint runs a session that checkpoints every round and is
// canceled once killAt trials have completed, then loads the checkpoint it
// left behind. The cancellation lands between rounds, like a kill signal.
func runToCheckpoint(t *testing.T, bench, searcher string, budget float64, seed int64, workers, killAt int) *checkpoint.Snapshot {
	t.Helper()
	path := filepath.Join(t.TempDir(), "session.ckpt")
	s := newSession(t, bench, searcher, budget, seed)
	s.Workers = workers
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
		t.Fatalf("session survived the kill at trial %d (budget too small?)", killAt)
	}
	if err := keeper.Close(); err != nil {
		t.Fatalf("keeper: %v", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("no checkpoint after kill: %v", err)
	}
	if snap.Trial < killAt {
		t.Fatalf("checkpoint stopped at trial %d, kill was at %d", snap.Trial, killAt)
	}
	return snap
}

// outcomeFingerprint flattens the deterministic parts of an outcome, and
// of the final state of the runner that measured it, for byte comparison.
func outcomeFingerprint(t *testing.T, s *Session, out *Outcome) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Workload, Searcher, BestKey    string
		DefaultWall, BestWall, Elapsed float64
		Trials, Failures, CacheHits    int
		Flakes, Attempts, Transients   int
		Trace                          []TracePoint
		State                          runner.StateSegment
		BaseM, BestM                   runner.Measurement
		ImprovementPct, Speedup        float64
	}{
		Workload: out.Workload, Searcher: out.Searcher, BestKey: out.Best.Key(),
		DefaultWall: out.DefaultWall, BestWall: out.BestWall, Elapsed: out.Elapsed,
		Trials: out.Trials, Failures: out.Failures, CacheHits: out.CacheHits,
		Flakes: out.Flakes, Attempts: out.Attempts, Transients: out.TransientFailures,
		Trace: out.Trace, State: finalRunnerState(t, s.Runner),
		BaseM: out.BaseMeasurement, BestM: out.BestMeasurement,
		ImprovementPct: out.ImprovementPct, Speedup: out.Speedup,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// finalRunnerState folds r's state stream into the values it ends with:
// the clock, and per configuration key the noise reps drawn, the launches
// counted and the memoized verdict.
func finalRunnerState(t *testing.T, r runner.Runner) runner.StateSegment {
	t.Helper()
	stream, err := r.(runner.StateSnapshotter).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	segs, err := runner.DecodeState(stream)
	if err != nil {
		t.Fatal(err)
	}
	final := runner.StateSegment{Reps: map[string]int{}, Cache: map[string]runner.Measurement{},
		Launches: map[string]int{}}
	for _, seg := range segs {
		final.Elapsed = seg.Elapsed
		maps.Copy(final.Reps, seg.Reps)
		maps.Copy(final.Cache, seg.Cache)
		maps.Copy(final.Launches, seg.Launches)
	}
	return final
}

func TestSessionKillAndResumeByteIdentical(t *testing.T) {
	const (
		bench   = "fop"
		search  = "hillclimb"
		budget  = 900.0
		seed    = int64(11)
		workers = 2
		killAt  = 6
	)
	plain := newSession(t, bench, search, budget, seed)
	plain.Workers = workers
	uninterrupted, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}

	snap := runToCheckpoint(t, bench, search, budget, seed, workers, killAt)

	resumed := newSession(t, bench, search, budget, seed)
	resumed.Workers = workers
	resumed.Resume = snap
	out, err := resumed.Run()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}

	got, want := outcomeFingerprint(t, resumed, out), outcomeFingerprint(t, plain, uninterrupted)
	if got != want {
		t.Fatalf("resumed outcome differs from uninterrupted run:\nresumed:       %s\nuninterrupted: %s", got, want)
	}
	if !reflect.DeepEqual(out.Trace, uninterrupted.Trace) {
		t.Fatal("convergence traces differ")
	}
}

func TestSessionResumeChecksFingerprint(t *testing.T) {
	snap := runToCheckpoint(t, "fop", "random", 600, 3, 1, 4)

	cases := []struct {
		name   string
		mutate func(*Session, *checkpoint.Snapshot)
		want   string
	}{
		{"seed", func(s *Session, _ *checkpoint.Snapshot) { s.Seed = 99 }, "seed mismatch"},
		{"budget", func(s *Session, _ *checkpoint.Snapshot) { s.BudgetSeconds = 1200 }, "budget_seconds mismatch"},
		{"workers", func(s *Session, _ *checkpoint.Snapshot) { s.Workers = 4 }, "workers mismatch"},
		{"searcher", func(s *Session, _ *checkpoint.Snapshot) {
			sr, err := NewSearcher("anneal")
			if err != nil {
				t.Fatal(err)
			}
			s.Searcher = sr
		}, "searcher mismatch"},
		{"trial count", func(_ *Session, sn *checkpoint.Snapshot) { sn.Trial++ }, "claims"},
		{"divergent trial key", func(_ *Session, sn *checkpoint.Snapshot) { sn.Trials[0].Key = "-Xbogus" }, "diverged"},
		{"divergent baseline", func(_ *Session, sn *checkpoint.Snapshot) { sn.Baseline.Key = "-Xbogus" }, "diverged"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newSession(t, "fop", "random", 600, 3)
			clone := *snap
			clone.Trials = append([]checkpoint.TrialRecord(nil), snap.Trials...)
			tc.mutate(s, &clone)
			s.Resume = &clone
			_, err := s.Run()
			if err == nil {
				t.Fatal("mismatched resume accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// plainRunner hides the snapshotting methods of the wrapped runner.
type plainRunner struct{ runner.Runner }

func TestSessionCheckpointNeedsSnapshotterRunner(t *testing.T) {
	s := newSession(t, "fop", "random", 600, 1)
	s.Runner = plainRunner{s.Runner}
	s.Checkpoint = checkpoint.NewKeeper(filepath.Join(t.TempDir(), "x.ckpt"), 1, nil)
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "cannot snapshot state") {
		t.Fatalf("session with non-snapshotting runner = %v, want snapshot error", err)
	}
}

func TestSessionResumeRejectsCorruptTrialLog(t *testing.T) {
	snap := runToCheckpoint(t, "fop", "random", 600, 5, 1, 3)
	snap.Trials = snap.Trials[:len(snap.Trials)-1]
	s := newSession(t, "fop", "random", 600, 5)
	s.Resume = snap
	if _, err := s.Run(); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("truncated trial log accepted: %v", err)
	}
}

// TestSessionCheckpointDoesNotPerturbOutcome guards the zero-interference
// property: a session that checkpoints every round produces the identical
// outcome to one that never checkpoints.
func TestSessionCheckpointDoesNotPerturbOutcome(t *testing.T) {
	ps := newSession(t, "xalan", "anneal", 900, 8)
	plain, err := ps.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := newSession(t, "xalan", "anneal", 900, 8)
	keeper := checkpoint.NewKeeper(filepath.Join(t.TempDir(), "s.ckpt"), 1, nil)
	s.Checkpoint = keeper
	ckd, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := keeper.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := outcomeFingerprint(t, s, ckd), outcomeFingerprint(t, ps, plain); got != want {
		t.Fatalf("checkpointing changed the outcome:\nwith:    %s\nwithout: %s", got, want)
	}
}

const finishedTrials = 45 // not a multiple of the cadence, 8

// finishedSessionSetup builds the 45-trial h2 session, checkpointing to
// path every 8 trials, so its last trials are left to the final write.
func finishedSessionSetup(t *testing.T, path string) (*Session, *checkpoint.Keeper) {
	t.Helper()
	s := newSession(t, "h2", "hierarchical", 1e9, 7)
	s.Workers = 2
	s.MaxTrials = finishedTrials
	keeper := checkpoint.NewKeeper(path, 8, nil)
	s.Checkpoint = keeper
	return s, keeper
}

// finishedSession runs that session to its end and returns it with its
// outcome.
func finishedSession(t *testing.T, path string) (*Session, *Outcome) {
	t.Helper()
	s, keeper := finishedSessionSetup(t, path)
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := keeper.Close(); err != nil {
		t.Fatal(err)
	}
	if out.Trials != finishedTrials {
		t.Fatalf("session ran %d trials, want %d", out.Trials, finishedTrials)
	}
	return s, out
}

// A session that ends on its own terms leaves every delivered trial in its
// checkpoint, written by the background writer, with a trial count the
// cadence does not divide.
func TestFinalCheckpointHoldsLastTrial(t *testing.T) {
	path := filepath.Join(t.TempDir(), "final.ckpt")
	finishedSession(t, path)
	snap := loadSnapshot(t, path)
	if snap.Trial != finishedTrials || len(snap.Trials) != finishedTrials {
		t.Fatalf("final checkpoint holds trial %d (%d records), want %d", snap.Trial, len(snap.Trials), finishedTrials)
	}
}

// TestResumeOfFinishedFileWritesNothing: resuming a finished session
// replays every trial, measures nothing, and leaves its file alone — the
// same bytes in the same inode, not a rewrite of what it already holds.
func TestResumeOfFinishedFileWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "final.ckpt")
	s, out := finishedSession(t, path)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	resumed, keeper := finishedSessionSetup(t, path)
	resumed.Resume = loadSnapshot(t, path)
	reg := telemetry.New()
	resumed.Runner.(*runner.InProcess).Telemetry = reg
	again, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := keeper.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := outcomeFingerprint(t, resumed, again), outcomeFingerprint(t, s, out); got != want {
		t.Fatalf("resumed finished session diverged:\nresumed:  %s\noriginal: %s", got, want)
	}
	if n := reg.Snapshot()["runner_attempts_total"]; n != 0 {
		t.Fatalf("resuming a finished session launched %g attempts", n)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("resuming a finished session replaced its file")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("resuming a finished session changed its file (%v)", err)
	}
}
