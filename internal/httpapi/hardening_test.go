package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/hotspot"
)

// stubTune swaps the server's tuning function for the test's lifetime.
func stubTune(t *testing.T, fn func(ctx context.Context, opts hotspot.Options) (*hotspot.Result, error)) {
	t.Helper()
	old := tuneFn
	tuneFn = fn
	t.Cleanup(func() { tuneFn = old })
}

func newBoundedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(t, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func doDelete(t *testing.T, url string, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func submitAsync(t *testing.T, url string, req TuneRequest) int {
	t.Helper()
	var accepted map[string]int
	if code := postJSON(t, url+"/v1/tune", req, &accepted); code != http.StatusAccepted {
		t.Fatalf("async submit status %d", code)
	}
	return accepted["id"]
}

func pollJob(t *testing.T, url string, id int) Job {
	t.Helper()
	var job Job
	if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", url, id), &job); code != 200 {
		t.Fatalf("job %d poll status %d", id, code)
	}
	return job
}

func TestPanickingJobFailsWithoutKillingServer(t *testing.T) {
	stubTune(t, func(context.Context, hotspot.Options) (*hotspot.Result, error) {
		panic("searcher exploded")
	})
	s, ts := newTestServer(t)

	id := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	s.Wait()
	job := pollJob(t, ts.URL, id)
	if job.State != "failed" || !strings.Contains(job.Error, "panic: searcher exploded") {
		t.Fatalf("panicking job should fail with the panic message, got %+v", job)
	}

	// The server survived and still serves requests — including the sync
	// path, where the same recovery applies.
	var sync Job
	if code := postJSON(t, ts.URL+"/v1/tune?sync=1", TuneRequest{Benchmark: "fop"}, &sync); code != 200 {
		t.Fatalf("sync submit after panic: status %d", code)
	}
	if sync.State != "failed" || !strings.Contains(sync.Error, "panic:") {
		t.Fatalf("sync panic should fail the job inline, got %+v", sync)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	stubTune(t, func(ctx context.Context, _ hotspot.Options) (*hotspot.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s, ts := newTestServer(t)

	id := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	<-started
	if code := doDelete(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil); code != http.StatusAccepted {
		t.Fatalf("cancel of a running job: status %d", code)
	}
	s.Wait()
	if job := pollJob(t, ts.URL, id); job.State != "canceled" {
		t.Fatalf("job should be canceled, got %+v", job)
	}

	// Canceling a finished job is a conflict.
	if code := doDelete(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), nil); code != http.StatusConflict {
		t.Errorf("cancel of a terminal job: status %d, want 409", code)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	stubTune(t, func(ctx context.Context, opts hotspot.Options) (*hotspot.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &hotspot.Result{Benchmark: opts.Benchmark}, nil
	})
	s, ts := newBoundedServer(t, Config{MaxConcurrent: 1, MaxJobs: 8})

	first := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	second := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})

	// The single worker holds the first job, so the second is still queued
	// and cancels instantly.
	var job Job
	if code := doDelete(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, second), &job); code != 200 {
		t.Fatalf("cancel of a queued job: status %d", code)
	}
	if job.State != "canceled" {
		t.Fatalf("queued job should cancel immediately, got %+v", job)
	}
	close(release)
	s.Wait()
	if job := pollJob(t, ts.URL, first); job.State != "done" {
		t.Errorf("first job should finish normally, got %+v", job)
	}
}

func TestConcurrencyCapHolds(t *testing.T) {
	var cur, max int64
	stubTune(t, func(context.Context, hotspot.Options) (*hotspot.Result, error) {
		c := atomic.AddInt64(&cur, 1)
		for {
			m := atomic.LoadInt64(&max)
			if c <= m || atomic.CompareAndSwapInt64(&max, m, c) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		atomic.AddInt64(&cur, -1)
		return &hotspot.Result{}, nil
	})
	s, ts := newBoundedServer(t, Config{MaxConcurrent: 2, MaxJobs: 64})

	for i := 0; i < 8; i++ {
		submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	}
	s.Wait()
	if got := atomic.LoadInt64(&max); got != 2 {
		t.Errorf("8 jobs on a 2-session pool ran %d concurrently, want exactly 2", got)
	}
}

func TestJobStoreEvictsOldestFinished(t *testing.T) {
	stubTune(t, func(context.Context, hotspot.Options) (*hotspot.Result, error) {
		return &hotspot.Result{}, nil
	})
	s, ts := newBoundedServer(t, Config{MaxConcurrent: 2, MaxJobs: 3})

	for i := 0; i < 3; i++ {
		submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	}
	s.Wait()
	for i := 0; i < 2; i++ {
		submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	}
	s.Wait()

	var jobs []Job
	if code := getJSON(t, ts.URL+"/v1/jobs", &jobs); code != 200 {
		t.Fatal("jobs list failed")
	}
	if len(jobs) > 3 {
		t.Errorf("store holds %d jobs, cap is 3", len(jobs))
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/1", nil); code != 404 {
		t.Errorf("oldest finished job should be evicted, got status %d", code)
	}
	if job := pollJob(t, ts.URL, 5); job.State != "done" {
		t.Errorf("newest job should be retained: %+v", job)
	}
}

func TestFullStoreOfActiveJobsRejects(t *testing.T) {
	release := make(chan struct{})
	stubTune(t, func(ctx context.Context, _ hotspot.Options) (*hotspot.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &hotspot.Result{}, nil
	})
	s, ts := newBoundedServer(t, Config{MaxConcurrent: 1, MaxJobs: 2})

	submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"}) // running
	submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"}) // queued

	// Every stored job is active: nothing can be evicted.
	if code := postJSON(t, ts.URL+"/v1/tune", TuneRequest{Benchmark: "fop"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("submit to a full store of active jobs: status %d, want 503", code)
	}

	close(release)
	s.Wait()
	// Finished jobs are evictable, so submission works again.
	id := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	s.Wait()
	if job := pollJob(t, ts.URL, id); job.State != "done" {
		t.Errorf("post-eviction job should run: %+v", job)
	}
}

func TestJobReportsLiveProgress(t *testing.T) {
	reported := make(chan struct{})
	release := make(chan struct{})
	stubTune(t, func(ctx context.Context, opts hotspot.Options) (*hotspot.Result, error) {
		opts.OnProgress(hotspot.Progress{Trials: 1, ElapsedMinutes: 0.5, BestWall: 10})
		opts.OnProgress(hotspot.Progress{Trials: 7, ElapsedMinutes: 3, BestWall: 9, ImprovementPct: 10})
		close(reported)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &hotspot.Result{}, nil
	})
	s, ts := newTestServer(t)

	id := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	<-reported
	job := pollJob(t, ts.URL, id)
	if job.State != "running" {
		t.Fatalf("job should still be running, got %+v", job)
	}
	if job.Progress == nil || job.Progress.Trials != 7 || job.Progress.ImprovementPct != 10 {
		t.Fatalf("live progress missing or stale: %+v", job.Progress)
	}
	close(release)
	s.Wait()
}

func TestShutdownRejectsAndCancelsStragglers(t *testing.T) {
	started := make(chan struct{}, 1)
	stubTune(t, func(ctx context.Context, _ hotspot.Options) (*hotspot.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s, ts := newBoundedServer(t, Config{MaxConcurrent: 1, MaxJobs: 4})

	id := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// The job never finishes on its own, so the deadline forces cancellation.
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown past its grace period should report the deadline, got %v", err)
	}
	if job := pollJob(t, ts.URL, id); job.State != "canceled" {
		t.Errorf("straggler should be canceled at shutdown, got %+v", job)
	}
	if code := postJSON(t, ts.URL+"/v1/tune", TuneRequest{Benchmark: "fop"}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: status %d, want 503", code)
	}
}
