package hotspot

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/evald"
)

// The checkpoint byte contract: the file a session's background keeper
// leaves depends only on the session's options, seed, workers and
// cadence. Every due snapshot becomes one record whatever the disk's
// latency, so repeated runs, a fleet run and a killed-and-resumed run all
// leave the same bytes. The gate session is h2 under a transient chaos
// plan with hedging and quarantine, checkpointing every 2 trials.

// gateOptions is the gate session, checkpointing to path.
func gateOptions(path string) Options {
	return Options{
		Benchmark:             "h2",
		BudgetMinutes:         60,
		Seed:                  7,
		Workers:               2,
		Noise:                 -1,
		Chaos:                 "launch=0.05,corrupt=0.03,crash=0.03",
		Hedge:                 true,
		Quarantine:            true,
		CheckpointPath:        path,
		CheckpointEveryTrials: 2,
	}
}

// gateFile runs opts to its end and returns the checkpoint it leaves.
func gateFile(t *testing.T, opts Options) []byte {
	t.Helper()
	if _, err := Tune(opts); err != nil {
		t.Fatal(err)
	}
	return readFile(t, opts.CheckpointPath)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointBytesReproducible: ten runs of the gate session leave one
// file.
func TestCheckpointBytesReproducible(t *testing.T) {
	dir := t.TempDir()
	want := gateFile(t, gateOptions(filepath.Join(dir, "0.ckpt")))
	for i := 1; i < 10; i++ {
		got := gateFile(t, gateOptions(filepath.Join(dir, fmt.Sprintf("%d.ckpt", i))))
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d left a %d-byte checkpoint that differs from run 0's %d bytes", i, len(got), len(want))
		}
	}
}

// TestCheckpointBytesSurviveKillAndResume: a gate session killed by
// crash-at and resumed to its end leaves the uninterrupted run's bytes —
// when the kill is plain, when a second kill lands inside the resumed
// session's replay prefix, and when a torn tail is cut off the file
// before the resume. A kill leaves a prefix of the uninterrupted file,
// and a kill inside the replay prefix leaves the file as it was.
func TestCheckpointBytesSurviveKillAndResume(t *testing.T) {
	want := gateFile(t, gateOptions(filepath.Join(t.TempDir(), "whole.ckpt")))
	for _, tc := range []struct {
		name  string
		kills []string // one crash-at per life before the last
		cut   int      // bytes cut off the file before the last life
	}{
		{"kill", []string{"crash-at=20"}, 0},
		{"kill inside the replay prefix", []string{"crash-at=40", "crash-at=20"}, 0},
		{"kill and torn tail", []string{"crash-at=30"}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := gateOptions(filepath.Join(t.TempDir(), "session.ckpt"))
			var after []byte
			for i, kill := range tc.kills {
				crashTune(t, opts, kill)
				got := readFile(t, opts.CheckpointPath)
				if !bytes.HasPrefix(want, got) {
					t.Fatalf("%s left %d bytes that are not a prefix of the uninterrupted file", kill, len(got))
				}
				if i > 0 && !bytes.Equal(got, after) {
					t.Fatalf("%s inside the replay prefix changed the file", kill)
				}
				after = got
				opts.Resume = true
			}
			if tc.cut > 0 {
				if err := os.Truncate(opts.CheckpointPath, int64(len(after)-tc.cut)); err != nil {
					t.Fatal(err)
				}
			}
			if got := gateFile(t, opts); !bytes.Equal(got, want) {
				t.Fatalf("resumed file is %d bytes and differs from the uninterrupted %d", len(got), len(want))
			}
		})
	}
}

// TestCheckpointBytesFleetEquivalence: the gate session at four workers
// leaves the same file in-process and against a loopback evald node, with
// trials placed one at a time and in batches of 16.
func TestCheckpointBytesFleetEquivalence(t *testing.T) {
	node := httptest.NewServer(evald.New(evald.Config{Node: "n0"}))
	defer node.Close()
	dir := t.TempDir()
	run := func(name string, batch int, nodes ...string) []byte {
		opts := gateOptions(filepath.Join(dir, name+".ckpt"))
		opts.Workers = 4
		opts.Nodes, opts.DispatchBatch = nodes, batch
		return gateFile(t, opts)
	}
	want := run("local", 0)
	addr := strings.TrimPrefix(node.URL, "http://")
	for _, batch := range []int{0, 16} {
		if got := run(fmt.Sprintf("batch%d", batch), batch, addr); !bytes.Equal(got, want) {
			t.Fatalf("-batch %d: fleet checkpoint is %d bytes and differs from the in-process %d", batch, len(got), len(want))
		}
	}
}
