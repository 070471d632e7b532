package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/hotspot"
)

// fakeClock is an injectable time source for the token-bucket tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestAdmissionTokenBucket(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := newAdmission(2, 4, clk.now)

	for i := 0; i < 4; i++ {
		if ok, _ := a.take("c"); !ok {
			t.Fatalf("take %d within burst refused", i+1)
		}
	}
	ok, retry := a.take("c")
	if ok {
		t.Fatal("5th take within the burst admitted")
	}
	if retry != 1 {
		t.Fatalf("dry-bucket retry hint = %d, want 1 (ceil(1 token / 2 per s))", retry)
	}
	// Each client refills independently.
	if ok, _ := a.take("other"); !ok {
		t.Fatal("fresh client shares the dry bucket")
	}
	// Half a second at 2 tokens/s accrues exactly one token.
	clk.advance(500 * time.Millisecond)
	if ok, _ := a.take("c"); !ok {
		t.Fatal("refilled token not granted")
	}
	if ok, _ := a.take("c"); ok {
		t.Fatal("second take after a one-token refill admitted")
	}

	// Burst ≤ 0 defaults to max(1, ceil(rate)).
	if b := newAdmission(0.5, 0, clk.now); b.burst != 1 {
		t.Errorf("default burst for rate 0.5 = %g, want 1", b.burst)
	}
	if b := newAdmission(3.2, 0, clk.now); b.burst != 4 {
		t.Errorf("default burst for rate 3.2 = %g, want 4", b.burst)
	}
}

func TestAdmissionBucketMapBounded(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	a := newAdmission(1, 1, clk.now)
	// A flood of distinct clients must not grow the map without bound:
	// buckets idle at full burst are swept once the cap is hit.
	for i := 0; i < 3*maxClientBuckets; i++ {
		a.take(fmt.Sprintf("client-%d", i))
		clk.advance(2 * time.Second) // everyone refills to full burst
	}
	a.mu.Lock()
	n := len(a.buckets)
	a.mu.Unlock()
	if n > maxClientBuckets {
		t.Fatalf("bucket map grew to %d entries, cap is %d", n, maxClientBuckets)
	}
}

// postShed posts a submission and decodes the shed envelope plus the
// Retry-After header.
func postShed(t *testing.T, url, client string, req TuneRequest) (int, string, shedResponse) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/v1/tune", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if client != "" {
		hr.Header.Set("X-Client", client)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var shed shedResponse
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&shed); err != nil {
			t.Fatalf("shed body is not the JSON envelope: %v", err)
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), shed
}

// TestOverloadBurstShedsSubmissionsNotControl is the admission-control
// drill from the overload runbook: a burst of submissions against a
// one-slot farm with a bounded accept queue. Excess submissions bounce
// with 429 + Retry-After while the jobs already accepted keep running and
// polls and cancels keep working.
func TestOverloadBurstShedsSubmissionsNotControl(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	stubTune(t, func(ctx context.Context, _ hotspot.Options) (*hotspot.Result, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &hotspot.Result{}, nil
	})
	s, ts := newBoundedServer(t, Config{MaxConcurrent: 1, MaxJobs: 64, MaxQueueDepth: 2})

	running := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	<-started // the worker holds the only slot; everything below queues

	// Concurrent burst: far more submissions than the queue admits.
	const burst = 16
	var wg sync.WaitGroup
	codes := make([]int, burst)
	retries := make([]string, burst)
	bodies := make([]shedResponse, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], retries[i], bodies[i] = postShed(t, ts.URL, "", TuneRequest{Benchmark: "fop"})
		}(i)
	}
	wg.Wait()

	accepted, shed := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
			if retries[i] == "" {
				t.Error("shed response missing the Retry-After header")
			}
			if bodies[i].RetryAfterSeconds < 1 || bodies[i].Error == "" {
				t.Errorf("shed envelope incomplete: %+v", bodies[i])
			}
		default:
			t.Errorf("burst submission %d: unexpected status %d", i, code)
		}
	}
	if shed == 0 {
		t.Fatalf("no submission shed: %d accepted into a 2-deep queue", accepted)
	}
	if accepted == 0 {
		t.Fatal("every submission shed; the queue admitted nothing")
	}

	// Control requests are never shed behind the submission storm: the
	// running job polls fine and a queued job cancels fine.
	if job := pollJob(t, ts.URL, running); job.State != "running" {
		t.Fatalf("poll under overload: %+v", job)
	}
	var jobs []Job
	if code := getJSON(t, ts.URL+"/v1/jobs", &jobs); code != 200 {
		t.Fatalf("job list under overload: status %d", code)
	}
	for _, j := range jobs {
		if j.State == "queued" {
			if code := doDelete(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, j.ID), nil); code != 200 {
				t.Fatalf("cancel of queued job %d under overload: status %d", j.ID, code)
			}
			break
		}
	}
	if s.reg.Counter(`httpapi_shed_total{reason="queue-full"}`).Value() == 0 {
		t.Error("queue-full shed counter never ticked")
	}

	// The work the farm accepted still finishes.
	close(release)
	s.Wait()
	if job := pollJob(t, ts.URL, running); job.State != "done" {
		t.Errorf("in-flight job did not finish after the burst: %+v", job)
	}
}

func TestPerClientRateLimitIsolatesClients(t *testing.T) {
	stubTune(t, func(context.Context, hotspot.Options) (*hotspot.Result, error) {
		return &hotspot.Result{}, nil
	})
	s, ts := newBoundedServer(t, Config{MaxConcurrent: 1, MaxJobs: 64, ClientRatePerSec: 1, ClientBurst: 1})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s.admit = newAdmission(1, 1, clk.now)

	if code, _, _ := postShed(t, ts.URL, "alice", TuneRequest{Benchmark: "fop"}); code != http.StatusAccepted {
		t.Fatalf("alice's first submission: status %d", code)
	}
	code, retry, shed := postShed(t, ts.URL, "alice", TuneRequest{Benchmark: "fop"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("alice's burst-exceeding submission: status %d, want 429", code)
	}
	if retry == "" || shed.RetryAfterSeconds < 1 {
		t.Fatalf("rate-limit shed lacks a retry hint: header=%q body=%+v", retry, shed)
	}
	// One greedy client must not starve another.
	if code, _, _ := postShed(t, ts.URL, "bob", TuneRequest{Benchmark: "fop"}); code != http.StatusAccepted {
		t.Fatalf("bob starved by alice's bucket: status %d", code)
	}
	// Time refills the bucket.
	clk.advance(time.Second)
	if code, _, _ := postShed(t, ts.URL, "alice", TuneRequest{Benchmark: "fop"}); code != http.StatusAccepted {
		t.Fatalf("alice still limited after refill: status %d", code)
	}
	if s.reg.Counter(`httpapi_shed_total{reason="rate-limited"}`).Value() == 0 {
		t.Error("rate-limited shed counter never ticked")
	}
	s.Wait()
}

func TestShutdownShedsWithEnvelope(t *testing.T) {
	stubTune(t, func(context.Context, hotspot.Options) (*hotspot.Result, error) {
		return &hotspot.Result{}, nil
	})
	s, ts := newTestServer(t)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, retry, shed := postShed(t, ts.URL, "", TuneRequest{Benchmark: "fop"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: status %d, want 503", code)
	}
	if retry == "" || shed.RetryAfterSeconds < 1 || shed.Error == "" {
		t.Fatalf("shutdown shed lacks the envelope: header=%q body=%+v", retry, shed)
	}
}

// TestJournalCompactionAcrossRestart churns a tiny durable farm past its
// compaction threshold and restarts it: results survive, evicted job ids
// are never reissued (the compacted stream's id watermark), and the
// journal stays bounded.
func TestJournalCompactionAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	stubTune(t, func(_ context.Context, opts hotspot.Options) (*hotspot.Result, error) {
		return &hotspot.Result{Benchmark: opts.Benchmark, BestWall: 7}, nil
	})
	// A 1-byte threshold compacts after every append — the most hostile
	// cadence the trigger supports.
	cfg := Config{MaxConcurrent: 1, MaxJobs: 2, JournalCompactBytes: 1}
	s, ts := newDurableServer(t, dir, cfg)

	var last int
	for i := 0; i < 6; i++ { // MaxJobs 2: most of these evict a predecessor
		last = submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop", Seed: int64(i)})
		s.Wait()
	}
	if s.reg.Counter("httpapi_journal_compacted_records_total").Value() == 0 {
		t.Fatal("compaction never ran despite a 1-byte threshold")
	}
	if s.reg.Counter("journal_compactions_total").Value() == 0 {
		t.Fatal("compactions not counted")
	}
	if s.reg.Counter("httpapi_journal_errors_total").Value() != 0 {
		t.Fatal("compaction logged journal errors")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newDurableServer(t, dir, cfg)
	if job := pollJob(t, ts2.URL, last); job.State != "done" || job.Result == nil || job.Result.BestWall != 7 {
		t.Fatalf("job replayed from the compacted journal = %+v", job)
	}
	// Evicted ids must stay burned: the next submission continues the
	// sequence instead of reusing id 1.
	if id := submitAsync(t, ts2.URL, TuneRequest{Benchmark: "fop"}); id != last+1 {
		t.Fatalf("post-restart submission got id %d, want %d", id, last+1)
	}
	s2.Wait()
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A third generation proves the watermark survives its own rewrite.
	s3, ts3 := newDurableServer(t, dir, cfg)
	if id := submitAsync(t, ts3.URL, TuneRequest{Benchmark: "fop"}); id != last+2 {
		t.Fatalf("third-generation submission got id %d, want %d", id, last+2)
	}
	s3.Wait()
}

// TestJournalCompactionKeepsTriggeringVerdict: when a job's verdict is the
// append that crosses the compaction threshold, the rewritten journal must
// still hold that verdict. A restarted farm then recovers no job and runs
// none of the finished ones again.
func TestJournalCompactionKeepsTriggeringVerdict(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	stubTune(t, func(_ context.Context, opts hotspot.Options) (*hotspot.Result, error) {
		runs.Add(1)
		return &hotspot.Result{Benchmark: opts.Benchmark, BestWall: 5}, nil
	})
	// A 1-byte threshold compacts after every append, the verdict's too.
	cfg := Config{MaxConcurrent: 1, MaxJobs: 4, JournalCompactBytes: 1}
	s, ts := newDurableServer(t, dir, cfg)
	var ids []int
	for i := 0; i < 3; i++ {
		ids = append(ids, submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop", Seed: int64(i)}))
		s.Wait()
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := runs.Load()

	s2, ts2 := newDurableServer(t, dir, cfg)
	if got := s2.reg.Counter("httpapi_jobs_recovered_total").Value(); got != 0 {
		t.Fatalf("restart recovered %d finished jobs, want 0", got)
	}
	s2.Wait()
	if got := runs.Load(); got != before {
		t.Fatalf("restart ran %d finished jobs again", got-before)
	}
	for _, id := range ids {
		if job := pollJob(t, ts2.URL, id); job.State != "done" || job.Result == nil || job.Result.BestWall != 5 {
			t.Fatalf("job %d after restart = %+v", id, job)
		}
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionCrashLeavesJournalAuthoritative simulates dying between
// writing the compaction temp file and renaming it over the journal: the
// stranded temp holds no authoritative state and the next recovery sweeps
// it, replaying the (uncompacted) journal as if nothing happened.
func TestCompactionCrashLeavesJournalAuthoritative(t *testing.T) {
	dir := t.TempDir()
	stubTune(t, func(_ context.Context, opts hotspot.Options) (*hotspot.Result, error) {
		return &hotspot.Result{Benchmark: opts.Benchmark, BestWall: 3}, nil
	})
	s, ts := newDurableServer(t, dir, Config{MaxConcurrent: 1, MaxJobs: 8})
	id := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	s.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	stale := filepath.Join(dir, "farm.journal.compact31337")
	if err := os.WriteFile(stale, []byte("torn half-written compaction"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newDurableServer(t, dir, Config{MaxConcurrent: 1, MaxJobs: 8})
	if job := pollJob(t, ts2.URL, id); job.State != "done" || job.Result == nil || job.Result.BestWall != 3 {
		t.Fatalf("recovery with a stranded compaction temp lost the job: %+v", job)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stranded compaction temp not swept: %v", err)
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
