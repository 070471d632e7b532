package hotspot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dispatch"
	"repro/internal/workload"
)

// resultBytes flattens a result for byte comparison.
func resultBytes(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// crashTune runs a session armed with a crash-at fault and swallows the
// SessionCrash kill, leaving the checkpoint on disk — one life of the
// kill-and-resume drill.
func crashTune(t *testing.T, opts Options, at string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(SessionCrash); !ok {
			panic(r)
		}
	}()
	if opts.Chaos == "" {
		opts.Chaos = at
	} else {
		opts.Chaos += "," + at
	}
	if _, err := Tune(opts); err != nil {
		t.Fatalf("crash run failed before the kill: %v", err)
	}
	t.Fatalf("%s never fired — session finished", at)
}

// TestKillAndResumeMatrix is the crash drill across every search strategy:
// for each searcher a fixed-seed session is killed mid-run by the crash-at
// fault, resumed from its checkpoint, and must converge to the
// byte-identical result of the uninterrupted run. One extra case runs the
// drill under an active chaos plan, proving the fault-injection state
// machine survives the crash too.
func TestKillAndResumeMatrix(t *testing.T) {
	type tc struct {
		searcher string
		chaos    string
	}
	cases := make([]tc, 0, len(Searchers())+1)
	for _, s := range Searchers() {
		cases = append(cases, tc{searcher: s})
	}
	cases = append(cases, tc{searcher: "hillclimb", chaos: "launch=0.1,spike=0.2"})

	for _, c := range cases {
		name := c.searcher
		if c.chaos != "" {
			name += "+chaos"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts := Options{
				Benchmark:     "fop",
				Searcher:      c.searcher,
				BudgetMinutes: 8,
				Seed:          23,
				Workers:       2,
				Noise:         -1,
				Chaos:         c.chaos,
			}
			control, err := Tune(opts)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			durable := opts
			durable.CheckpointPath = filepath.Join(dir, "session.ckpt")
			durable.CheckpointEveryTrials = 1
			crashTune(t, durable, "crash-at=6")
			if _, err := os.Stat(durable.CheckpointPath); err != nil {
				t.Fatalf("no checkpoint after the kill: %v", err)
			}

			durable.Resume = true
			resumed, err := Tune(durable)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			got, want := resultBytes(t, resumed), resultBytes(t, control)
			if got != want {
				t.Fatalf("resumed result differs from uninterrupted run:\nresumed:       %s\nuninterrupted: %s", got, want)
			}
		})
	}
}

// TestResumeRequiresCheckpointPath pins the CLI contract: -resume without
// -checkpoint is a usage error, not a silent fresh start.
func TestResumeRequiresCheckpointPath(t *testing.T) {
	_, err := Tune(Options{Benchmark: "fop", BudgetMinutes: 5, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "Resume requires CheckpointPath") {
		t.Fatalf("resume without a path = %v, want usage error", err)
	}
}

// TestTuneRejectsOutOfRangeSize: a session refuses Workers and Reps past
// their bounds, through Tune and TuneCommon alike, before it measures.
func TestTuneRejectsOutOfRangeSize(t *testing.T) {
	fop, _ := workload.ByName("fop")
	for _, opts := range []Options{
		{Benchmark: "fop", BudgetMinutes: 1, Workers: MaxWorkers + 1},
		{Benchmark: "fop", BudgetMinutes: 1, Reps: dispatch.MaxReps + 1},
	} {
		if _, err := Tune(opts); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("Tune with workers %d, reps %d = %v, want a range error", opts.Workers, opts.Reps, err)
		}
		if _, err := TuneCommon([]*Profile{fop}, opts); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("TuneCommon with workers %d, reps %d = %v, want a range error", opts.Workers, opts.Reps, err)
		}
	}
}

// TestResumeFromMissingCheckpointStartsFresh: pointing -resume at a file
// that does not exist yet is a fresh start — the idiom `autotune
// -checkpoint X -resume` works on the first run and every run after.
func TestResumeFromMissingCheckpointStartsFresh(t *testing.T) {
	opts := Options{Benchmark: "fop", Searcher: "random", BudgetMinutes: 5, Seed: 4, Noise: -1}
	control, err := Tune(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.CheckpointPath = filepath.Join(t.TempDir(), "never-written.ckpt")
	opts.Resume = true
	fresh, err := Tune(opts)
	if err != nil {
		t.Fatal(err)
	}
	if resultBytes(t, fresh) != resultBytes(t, control) {
		t.Fatal("fresh start under -resume diverged from a plain run")
	}
}

// TestKillDuringReplayAndResume is the three-life drill: a session killed
// at trial 40 is resumed and killed again at trial 20 — inside the resume's
// replay prefix — then resumed to the end. The second kill must leave the
// first checkpoint untouched, so the third life converges to the
// byte-identical result of the uninterrupted run, with and without chaos.
func TestKillDuringReplayAndResume(t *testing.T) {
	for name, chaos := range map[string]string{
		"plain": "",
		"chaos": "launch=0.05,corrupt=0.03,crash=0.03",
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts := Options{
				Benchmark: "fop",
				Seed:      23,
				Workers:   2,
				Noise:     -1,
				Chaos:     chaos,
			}
			control, err := Tune(opts)
			if err != nil {
				t.Fatal(err)
			}
			durable := opts
			durable.CheckpointPath = filepath.Join(t.TempDir(), "session.ckpt")
			durable.CheckpointEveryTrials = 1
			crashTune(t, durable, "crash-at=40")
			durable.Resume = true
			crashTune(t, durable, "crash-at=20")
			resumed, err := Tune(durable)
			if err != nil {
				t.Fatalf("third life: %v", err)
			}
			if got, want := resultBytes(t, resumed), resultBytes(t, control); got != want {
				t.Fatalf("three-life result differs from the uninterrupted run (%d vs %d trials):\nresumed:       %s\nuninterrupted: %s",
					resumed.Trials, control.Trials, got, want)
			}
		})
	}
}

// TestV1CheckpointResumes is the format-migration drill for checkpoints.
// testdata/checkpoint_v1.ckpt is a version 1 checkpoint of a fop session
// under a transient chaos plan, killed by crash-at so the nested chaos and
// in-process runner state is in it, and testdata/checkpoint_v1.golden.json
// the resumed result; both were written by the last build that wrote
// version 1 and cannot be regenerated by this one.
func TestV1CheckpointResumes(t *testing.T) {
	resumesFixture(t, "checkpoint_v1", 1, "crash-at=40", Options{
		Benchmark:             "fop",
		BudgetMinutes:         30,
		Seed:                  23,
		Workers:               2,
		Noise:                 -1,
		Chaos:                 "launch=0.05,corrupt=0.03,crash=0.03",
		CheckpointEveryTrials: 4,
	})
}

// TestV2CheckpointResumes: testdata/checkpoint_v2.ckpt is a version 2
// checkpoint of an h2 session under launch, crash, spike and straggle
// faults with hedging and quarantine, killed by crash-at=40, and
// testdata/checkpoint_v2.golden.json the uninterrupted session's result;
// both were written by the last build that wrote version 2, whose chaos
// state also held the streaks, settled keys and fault counts this build
// derives.
func TestV2CheckpointResumes(t *testing.T) {
	resumesFixture(t, "checkpoint_v2", 2, "crash-at=60", Options{
		Benchmark:             "h2",
		BudgetMinutes:         120,
		Seed:                  7,
		Workers:               4,
		Noise:                 -1,
		Chaos:                 "launch=0.1,crash=0.05,spike=0.15,straggle=0.08",
		Hedge:                 true,
		Quarantine:            true,
		CheckpointEveryTrials: 8,
	})
}

// TestV3CheckpointResumes: testdata/checkpoint_v3.ckpt is a version 3
// checkpoint of a sunflow session under launch, corrupt, crash, hang and
// spike faults, written every 2 trials and killed by crash-at=50, so its
// runner state is a long chain of chaos segments each nesting the inner
// runner's; testdata/checkpoint_v3.golden.json is the uninterrupted
// session's result. Both were written by the last build that wrote
// version 3, whose chaos layer kept its own clock and stream.
func TestV3CheckpointResumes(t *testing.T) {
	resumesFixture(t, "checkpoint_v3", 3, "crash-at=65", Options{
		Benchmark:             "sunflow",
		BudgetMinutes:         90,
		Seed:                  11,
		Workers:               2,
		Noise:                 -1,
		Chaos:                 "launch=0.06,corrupt=0.03,crash=0.03,hang=0.02,spike=0.08",
		CheckpointEveryTrials: 2,
	})
}

// resumesFixture resumes a copy of testdata/<name>.ckpt, a checkpoint at
// format version, under opts: the result must be testdata/<name>.golden.json
// byte for byte and the file must be at this build's version afterwards.
// A second copy, resumed until the crash point kill (past the fixture's
// trials) fires and then resumed from the file this build wrote, must
// reproduce the golden too.
func resumesFixture(t *testing.T, name string, version uint32, kill string, opts Options) {
	t.Helper()
	fixture, err := os.ReadFile(filepath.Join("testdata", name+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", name+".golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	fileVersion := func(path string) uint32 {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return binary.LittleEndian.Uint32(b[4:8])
	}
	if v := binary.LittleEndian.Uint32(fixture[4:8]); v != version {
		t.Fatalf("fixture header reads version %d, want %d", v, version)
	}
	opts.CheckpointPath = filepath.Join(t.TempDir(), "session.ckpt")
	opts.Resume = true
	resume := func() []byte {
		res, err := Tune(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	if err := os.WriteFile(opts.CheckpointPath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := resume(); !bytes.Equal(got, golden) {
		t.Fatalf("resume from the version %d fixture differs from the golden:\n%s", version, got)
	}
	if v := fileVersion(opts.CheckpointPath); v != checkpoint.Version {
		t.Fatalf("checkpoint reads version %d after the session, want %d", v, checkpoint.Version)
	}

	if err := os.WriteFile(opts.CheckpointPath, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	crashTune(t, opts, kill)
	if v := fileVersion(opts.CheckpointPath); v != checkpoint.Version {
		t.Fatalf("checkpoint reads version %d after the kill, want %d", v, checkpoint.Version)
	}
	if got := resume(); !bytes.Equal(got, golden) {
		t.Fatalf("resume from the version %d checkpoint differs from the golden:\n%s", checkpoint.Version, got)
	}
}
