package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/hotspot"
	"repro/internal/checkpoint"
	"repro/internal/dispatch"
)

// newDurableServer builds a durable test server over dir and serves it.
func newDurableServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.StateDir = dir
	s, err := NewDurableServer(cfg)
	if err != nil {
		t.Fatalf("durable server: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestDurableServerReplayServesResults(t *testing.T) {
	dir := t.TempDir()
	stubTune(t, func(_ context.Context, opts hotspot.Options) (*hotspot.Result, error) {
		return &hotspot.Result{Benchmark: opts.Benchmark, BestWall: 42}, nil
	})
	s, ts := newDurableServer(t, dir, Config{MaxConcurrent: 2, MaxJobs: 8})
	first := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop", Seed: 1})
	second := submitAsync(t, ts.URL, TuneRequest{Benchmark: "h2", Seed: 2})
	s.Wait()
	want := pollJob(t, ts.URL, first)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// A second server over the same state dir serves the finished results
	// from disk — without running anything.
	stubTune(t, func(context.Context, hotspot.Options) (*hotspot.Result, error) {
		t.Error("replayed terminal job was re-run")
		return nil, errors.New("re-run")
	})
	s2, ts2 := newDurableServer(t, dir, Config{MaxConcurrent: 2, MaxJobs: 8})
	got := pollJob(t, ts2.URL, first)
	if got.State != "done" || got.Result == nil || got.Result.BestWall != 42 {
		t.Fatalf("replayed job = %+v, want done with the stored result", got)
	}
	wb, _ := json.Marshal(want.Result)
	gb, _ := json.Marshal(got.Result)
	if string(wb) != string(gb) {
		t.Fatalf("replayed result differs:\nbefore: %s\nafter:  %s", wb, gb)
	}
	if j := pollJob(t, ts2.URL, second); j.State != "done" || j.Request.Benchmark != "h2" {
		t.Fatalf("second replayed job = %+v", j)
	}

	// Job ids keep counting from where the dead process stopped: a replayed
	// id can never be reissued to a new submission.
	stubTune(t, func(_ context.Context, opts hotspot.Options) (*hotspot.Result, error) {
		return &hotspot.Result{Benchmark: opts.Benchmark}, nil
	})
	if id := submitAsync(t, ts2.URL, TuneRequest{Benchmark: "fop"}); id != second+1 {
		t.Fatalf("post-restart submission got id %d, want %d", id, second+1)
	}
	s2.Wait()
}

// TestDurableServerCrashResumesJobByteIdentical is the farm's end-to-end
// crash drill: a job is killed mid-search along with its server, and after
// restart the re-queued job resumes from its checkpoint and finishes with
// the byte-identical result an uninterrupted run produces.
func TestDurableServerCrashResumesJobByteIdentical(t *testing.T) {
	req := TuneRequest{Benchmark: "fop", Searcher: "hillclimb", BudgetMinutes: 10, Seed: 11, Workers: 2}
	control, err := hotspot.Tune(hotspot.Options{
		Benchmark: req.Benchmark, Searcher: req.Searcher, BudgetMinutes: req.BudgetMinutes,
		Seed: req.Seed, Workers: req.Workers, Noise: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// First life: the session crashes after a handful of trials (leaving
	// its checkpoint behind) and the job then hangs — a wedged worker the
	// crash takes down with the server.
	started := make(chan struct{}, 1)
	stubTune(t, func(ctx context.Context, opts hotspot.Options) (*hotspot.Result, error) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(hotspot.SessionCrash); !ok {
						panic(r)
					}
				}
			}()
			opts.Chaos = "crash-at=6"
			_, _ = hotspot.TuneContext(ctx, opts)
			t.Error("crash-at plan did not fire")
		}()
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	cfg := Config{MaxConcurrent: 1, MaxJobs: 8, CheckpointEveryTrials: 1}
	s, ts := newDurableServer(t, dir, cfg)
	id := submitAsync(t, ts.URL, req)
	<-started
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("job-%d.ckpt", id))); err != nil {
		t.Fatalf("no job checkpoint on disk before the crash: %v", err)
	}
	s.Crash()

	// Second life: the real tuner. The journal replays the submission, the
	// job re-queues, and the session resumes from the checkpoint.
	stubTune(t, hotspot.TuneContext)
	s2, ts2 := newDurableServer(t, dir, cfg)
	s2.Wait()
	job := pollJob(t, ts2.URL, id)
	if job.State != "done" {
		t.Fatalf("recovered job = %q (%s), want done", job.State, job.Error)
	}
	wb, _ := json.Marshal(control)
	gb, _ := json.Marshal(job.Result)
	if string(wb) != string(gb) {
		t.Fatalf("resumed result differs from uninterrupted run:\nresumed:       %s\nuninterrupted: %s", gb, wb)
	}
	// The finished job's checkpoint is garbage-collected.
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("job-%d.ckpt", id))); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("finished job's checkpoint not removed: %v", err)
	}
}

func TestDurableServerShutdownRequeuesStragglers(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	stubTune(t, func(ctx context.Context, _ hotspot.Options) (*hotspot.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s, ts := newDurableServer(t, dir, Config{MaxConcurrent: 1, MaxJobs: 4})
	running := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop", Seed: 7})
	queued := submitAsync(t, ts.URL, TuneRequest{Benchmark: "h2", Seed: 8})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown should hit the deadline, got %v", err)
	}

	// The interrupted jobs were NOT journaled as canceled: the restarted
	// server owes them a real run.
	stubTune(t, func(_ context.Context, opts hotspot.Options) (*hotspot.Result, error) {
		return &hotspot.Result{Benchmark: opts.Benchmark, BestWall: 7}, nil
	})
	s2, ts2 := newDurableServer(t, dir, Config{MaxConcurrent: 1, MaxJobs: 4})
	s2.Wait()
	for _, id := range []int{running, queued} {
		if job := pollJob(t, ts2.URL, id); job.State != "done" || job.Result == nil {
			t.Errorf("interrupted job %d after restart = %+v, want done", id, job)
		}
	}
}

func TestDurableServerSalvagesTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	stubTune(t, func(_ context.Context, opts hotspot.Options) (*hotspot.Result, error) {
		return &hotspot.Result{Benchmark: opts.Benchmark, BestWall: 9}, nil
	})
	s, ts := newDurableServer(t, dir, Config{MaxConcurrent: 1, MaxJobs: 4})
	id := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	s.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A power cut mid-append leaves a torn record at the tail. The restart
	// truncates it away and keeps everything before it.
	path := filepath.Join(dir, "farm.journal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x03, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, ts2 := newDurableServer(t, dir, Config{MaxConcurrent: 1, MaxJobs: 4})
	defer s2.Shutdown(context.Background())
	if job := pollJob(t, ts2.URL, id); job.State != "done" || job.Result == nil || job.Result.BestWall != 9 {
		t.Fatalf("job lost to a torn journal tail: %+v", job)
	}
	if got := s2.reg.Snapshot()["journal_salvaged_total"]; got != 1 {
		t.Errorf("journal_salvaged_total = %v, want 1", got)
	}
}

func TestDurableServerRefusesCorruptJournalHead(t *testing.T) {
	cases := []struct {
		name string
		head []byte
		want error
	}{
		{"garbage", []byte("this is not a journal, honest"), checkpoint.ErrCorrupt},
		{"future version", []byte{'A', 'T', 'C', 'K', 0xFF, 0x00, 0x00, 0x00}, checkpoint.ErrFutureVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "farm.journal"), tc.head, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := NewDurableServer(Config{StateDir: dir})
			if !errors.Is(err, tc.want) {
				t.Fatalf("corrupt journal head accepted: %v", err)
			}
		})
	}
}

// TestEvictNeverDropsLiveJobs is the regression test for the eviction
// invariant: whatever ends up on the done list, a queued or running job
// must never be evicted from the store.
func TestEvictNeverDropsLiveJobs(t *testing.T) {
	s := newServer(t, Config{MaxConcurrent: 1, MaxJobs: 2})
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[1] = &Job{ID: 1, State: "running"}
	s.jobs[2] = &Job{ID: 2, State: "done"}
	// Poison the done list: a live job's id, a terminal id, and a stale id.
	s.doneOrder = []int{1, 2, 99}

	if !s.evictLocked() {
		t.Fatal("evictLocked found nothing to evict despite a terminal job")
	}
	if _, alive := s.jobs[1]; !alive {
		t.Fatal("evictLocked evicted a running job")
	}
	if _, gone := s.jobs[2]; gone {
		t.Fatal("evictLocked kept the terminal job instead")
	}
	if len(s.doneOrder) != 1 || s.doneOrder[0] != 1 {
		t.Fatalf("done list after eviction = %v, want the live id retained", s.doneOrder)
	}

	// Once the live job reaches a terminal state it becomes evictable.
	s.jobs[1].State = "failed"
	s.jobs[3], s.jobs[4] = &Job{ID: 3, State: "queued"}, &Job{ID: 4, State: "queued"}
	if s.evictLocked() {
		t.Fatal("store should still be over capacity after evicting job 1")
	}
	if _, alive := s.jobs[1]; alive {
		t.Fatal("terminal job survived eviction under pressure")
	}
}

// TestTuneRejectsOutOfRangeSize: workers and reps outside the bounds a
// session accepts come back as the 400 envelope before the job reaches
// the journal, so nothing runs, nothing is replayed after a restart, and
// the next accepted job takes the first ID. The bounds themselves are
// accepted.
func TestTuneRejectsOutOfRangeSize(t *testing.T) {
	dir := t.TempDir()
	ran := make(chan hotspot.Options, 8)
	stubTune(t, func(_ context.Context, opts hotspot.Options) (*hotspot.Result, error) {
		ran <- opts
		return &hotspot.Result{Benchmark: opts.Benchmark}, nil
	})
	s, ts := newDurableServer(t, dir, Config{MaxConcurrent: 1, MaxJobs: 8})
	for _, req := range []TuneRequest{
		{Benchmark: "fop", Workers: hotspot.MaxWorkers + 1},
		{Benchmark: "fop", Reps: dispatch.MaxReps + 1},
		{Benchmark: "fop", Workers: -1},
		{Benchmark: "fop", Reps: -1},
	} {
		var env map[string]string
		if code := postJSON(t, ts.URL+"/v1/tune", req, &env); code != 400 || !strings.Contains(env["error"], "outside") {
			t.Errorf("workers %d, reps %d: status %d, body %v; want 400 naming the range", req.Workers, req.Reps, code, env)
		}
	}
	if id := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop", Workers: hotspot.MaxWorkers, Reps: dispatch.MaxReps}); id != 1 {
		t.Errorf("the first accepted job got ID %d, want 1", id)
	}
	s.Wait()
	if opts := <-ran; opts.Workers != hotspot.MaxWorkers || opts.Reps != dispatch.MaxReps {
		t.Errorf("ran workers %d, reps %d", opts.Workers, opts.Reps)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 0 {
		t.Fatalf("%d rejected submissions ran", len(ran))
	}
	_, ts2 := newDurableServer(t, dir, Config{MaxConcurrent: 1, MaxJobs: 8})
	var jobs []Job
	if code := getJSON(t, ts2.URL+"/v1/jobs", &jobs); code != 200 || len(jobs) != 1 {
		t.Fatalf("after a restart: status %d, %d jobs, want the one accepted", code, len(jobs))
	}
}
