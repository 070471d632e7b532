package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// smallJob is a real (un-stubbed) tuning request that finishes in
// milliseconds of wall time.
func smallJob() TuneRequest {
	return TuneRequest{Benchmark: "fop", BudgetMinutes: 10, Reps: 1, Seed: 3, Workers: 2}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var job Job
	if code := postJSON(t, ts.URL+"/v1/tune?sync=1", smallJob(), &job); code != 200 {
		t.Fatalf("sync tune status %d", code)
	}
	code, body := getBody(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE httpapi_jobs_submitted_total counter",
		"httpapi_jobs_submitted_total 1",
		`httpapi_jobs_total{state="done"} 1`,
		"# TYPE httpapi_workers gauge",
		"httpapi_workers 4",
		"httpapi_jobs_running 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

func TestPprofRoutesGatedByConfig(t *testing.T) {
	// Absent by default: profiling endpoints must be an explicit opt-in.
	_, plain := newTestServer(t)
	if code, _ := getBody(t, plain.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof served without opt-in: status %d", code)
	}

	_, prof := newBoundedServer(t, Config{MaxConcurrent: 1, MaxJobs: 4, EnablePprof: true})
	code, body := getBody(t, prof.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index not served: status %d", code)
	}
	if code, _ := getBody(t, prof.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("pprof cmdline not served: status %d", code)
	}
}

func TestJobTelemetrySnapshot(t *testing.T) {
	_, ts := newTestServer(t)
	var job Job
	if code := postJSON(t, ts.URL+"/v1/tune?sync=1", smallJob(), &job); code != 200 {
		t.Fatalf("sync tune status %d", code)
	}
	if job.State != "done" || job.Result == nil {
		t.Fatalf("job did not finish: %+v", job)
	}
	if len(job.Telemetry) == 0 {
		t.Fatal("job snapshot carries no telemetry")
	}
	if got := job.Telemetry["session_trials_total"]; got != float64(job.Result.Trials) {
		t.Errorf("session_trials_total = %g, want %d", got, job.Result.Trials)
	}
	if job.Telemetry["runner_measures_total"] < 1 {
		t.Error("runner series missing from the job snapshot")
	}
	if job.Telemetry["session_budget_virtual_seconds"] != 600 {
		t.Errorf("budget gauge = %g, want 600", job.Telemetry["session_budget_virtual_seconds"])
	}

	// The poll endpoint serves the same snapshot.
	polled := pollJob(t, ts.URL, job.ID)
	if len(polled.Telemetry) == 0 {
		t.Error("polled job carries no telemetry")
	}
}

func TestJobTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var job Job
	req := smallJob()
	req.Chaos = "unstable-farm"
	if code := postJSON(t, ts.URL+"/v1/tune?sync=1", req, &job); code != 200 {
		t.Fatalf("sync tune status %d", code)
	}
	code, body := getBody(t, fmt.Sprintf("%s/v1/jobs/%d/trace", ts.URL, job.ID))
	if code != 200 {
		t.Fatalf("job trace status %d: %s", code, body)
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	kinds := map[string]int{}
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		kinds[ev.Kind]++
	}
	if kinds[telemetry.EvBaseline] != 1 || kinds[telemetry.EvObserve] == 0 || kinds[telemetry.EvAttempt] == 0 {
		t.Errorf("trace missing expected event kinds: %v", kinds)
	}
	if kinds[telemetry.EvFault] == 0 {
		t.Errorf("chaos session trace carries no fault events: %v", kinds)
	}

	if code, _ := getBody(t, ts.URL+"/v1/jobs/99/trace"); code != http.StatusNotFound {
		t.Errorf("missing job trace status %d, want 404", code)
	}
}

// TestJobTraceReportsDroppedEvents: a job trace whose ring overflowed
// says how many events it lost in X-Trace-Dropped; a complete one carries
// no such header. The trace's bytes are the tracer's either way.
func TestJobTraceReportsDroppedEvents(t *testing.T) {
	s, ts := newTestServer(t)
	var job Job
	if code := postJSON(t, ts.URL+"/v1/tune?sync=1", smallJob(), &job); code != 200 {
		t.Fatalf("sync tune status %d", code)
	}
	url := fmt.Sprintf("%s/v1/jobs/%d/trace", ts.URL, job.ID)
	dropped := func() (string, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("X-Trace-Dropped"), string(body)
	}
	if d, _ := dropped(); d != "" {
		t.Errorf("a complete trace reports %q dropped events", d)
	}
	s.mu.Lock()
	tr := s.jobs[job.ID].trace
	s.mu.Unlock()
	for i := tr.Len(); i < 16384+5; i++ {
		tr.Emit(telemetry.Event{Kind: telemetry.EvBarrier})
	}
	var want bytes.Buffer
	if err := tr.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if d, body := dropped(); d != "5" || body != want.String() {
		t.Errorf("overflowed trace: X-Trace-Dropped %q, want 5 (body equal: %v)", d, body == want.String())
	}
}

func TestShutdownDrainsLifecycleEventsWithoutLoss(t *testing.T) {
	s, ts := newBoundedServer(t, Config{MaxConcurrent: 2, MaxJobs: 32})
	const n = 8
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		req := smallJob()
		req.Seed = int64(i)
		ids = append(ids, submitAsync(t, ts.URL, req))
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("graceful shutdown errored: %v", err)
	}

	// Every submission must have its full lifecycle in the trace:
	// submitted → running → done, with nothing dropped by the collector.
	if d := s.evTrace.Dropped(); d != 0 {
		t.Fatalf("collector dropped %d events", d)
	}
	byJob := map[int][]string{}
	for _, ev := range s.evTrace.Events() {
		if ev.Kind != "job" {
			t.Fatalf("unexpected event kind %q", ev.Kind)
		}
		byJob[ev.Trial] = append(byJob[ev.Trial], ev.Detail)
	}
	for _, id := range ids {
		states := byJob[id]
		if len(states) != 3 || states[0] != "submitted" || states[1] != "running" || states[2] != "done" {
			t.Errorf("job %d lifecycle = %v, want [submitted running done]", id, states)
		}
	}

	// The lifecycle trace is also served over HTTP until the listener goes.
	code, body := getBody(t, ts.URL+"/v1/trace")
	if code != 200 || !strings.Contains(body, `"kind":"job"`) {
		t.Errorf("/v1/trace status %d", code)
	}
}
