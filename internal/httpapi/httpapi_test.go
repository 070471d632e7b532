package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/hotspot"
	"repro/internal/flags"
)

// newServer builds a server over cfg, failing the test if its recovery
// fails.
func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := NewDurableServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(t, DefaultConfig())
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
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

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
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

func TestListEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	var benches []string
	if code := getJSON(t, ts.URL+"/v1/benchmarks", &benches); code != 200 {
		t.Fatalf("benchmarks status %d", code)
	}
	if len(benches) != 29 {
		t.Errorf("expected 29 benchmarks, got %d", len(benches))
	}
	var searchers []string
	if code := getJSON(t, ts.URL+"/v1/searchers", &searchers); code != 200 {
		t.Fatal("searchers endpoint failed")
	}
	if len(searchers) == 0 || searchers[0] != "hierarchical" {
		t.Errorf("searchers: %v", searchers)
	}
	var scenarios []string
	if code := getJSON(t, ts.URL+"/v1/scenarios", &scenarios); code != 200 {
		t.Fatal("scenarios endpoint failed")
	}
	found := false
	for _, sc := range scenarios {
		found = found || sc == "unstable-farm"
	}
	if !found {
		t.Errorf("scenarios missing unstable-farm: %v", scenarios)
	}
}

func TestTuneChaosJob(t *testing.T) {
	_, ts := newTestServer(t)
	var job Job
	code := postJSON(t, ts.URL+"/v1/tune?sync=1",
		TuneRequest{Benchmark: "fop", BudgetMinutes: 15, Seed: 7,
			Chaos: "unstable-farm", Workers: 2}, &job)
	if code != 200 {
		t.Fatalf("chaos tune status %d", code)
	}
	if job.State != "done" || job.Result == nil {
		t.Fatalf("chaos job not done: %+v", job)
	}
	if job.Result.Chaos != "unstable-farm" {
		t.Errorf("result chaos plan %q", job.Result.Chaos)
	}
	if job.Result.Flakes == 0 || job.Result.Attempts <= job.Result.Trials {
		t.Errorf("an unstable farm should have flaked: flakes=%d attempts=%d trials=%d",
			job.Result.Flakes, job.Result.Attempts, job.Result.Trials)
	}
	// Same request, same seed: the flake accounting reproduces exactly.
	var again Job
	if code := postJSON(t, ts.URL+"/v1/tune?sync=1",
		TuneRequest{Benchmark: "fop", BudgetMinutes: 15, Seed: 7,
			Chaos: "unstable-farm", Workers: 2}, &again); code != 200 {
		t.Fatalf("repeat chaos tune status %d", code)
	}
	if again.Result.Flakes != job.Result.Flakes ||
		again.Result.BestWall != job.Result.BestWall ||
		again.Result.ElapsedMinutes != job.Result.ElapsedMinutes {
		t.Errorf("chaos job not reproducible: %+v vs %+v", job.Result, again.Result)
	}
}

func TestTuneSync(t *testing.T) {
	_, ts := newTestServer(t)
	var job Job
	code := postJSON(t, ts.URL+"/v1/tune?sync=1",
		TuneRequest{Benchmark: "fop", BudgetMinutes: 15, Seed: 1}, &job)
	if code != 200 {
		t.Fatalf("sync tune status %d", code)
	}
	if job.State != "done" || job.Result == nil {
		t.Fatalf("job not done: %+v", job)
	}
	if job.Result.ImprovementPct < 0 {
		t.Error("negative improvement")
	}
	if job.Result.Benchmark != "fop" {
		t.Errorf("result for %q", job.Result.Benchmark)
	}
}

func TestTuneAsyncAndPoll(t *testing.T) {
	s, ts := newTestServer(t)
	var accepted map[string]int
	code := postJSON(t, ts.URL+"/v1/tune",
		TuneRequest{Benchmark: "startup.scimark.fft", BudgetMinutes: 10, Seed: 2}, &accepted)
	if code != http.StatusAccepted {
		t.Fatalf("async tune status %d", code)
	}
	id := accepted["id"]
	if id == 0 {
		t.Fatal("no job id returned")
	}
	s.Wait() // deterministic test: wait for the worker

	var job Job
	if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), &job); code != 200 {
		t.Fatalf("job poll status %d", code)
	}
	if job.State != "done" {
		t.Fatalf("job state %q (%s)", job.State, job.Error)
	}

	var jobs []Job
	if code := getJSON(t, ts.URL+"/v1/jobs", &jobs); code != 200 || len(jobs) != 1 {
		t.Fatalf("jobs list: %d, %d jobs", code, len(jobs))
	}
}

func TestTuneValidation(t *testing.T) {
	_, ts := newTestServer(t)
	if code := postJSON(t, ts.URL+"/v1/tune", TuneRequest{}, nil); code != 400 {
		t.Errorf("missing benchmark: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/tune", TuneRequest{Benchmark: "nope"}, nil); code != 400 {
		t.Errorf("unknown benchmark: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/tune",
		TuneRequest{Benchmark: "fop", Chaos: "launch=2"}, nil); code != 400 {
		t.Errorf("bad chaos plan: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/tune",
		TuneRequest{Benchmark: "fop", RetryAttempts: -1}, nil); code != 400 {
		t.Errorf("negative retry_attempts: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/tune", "application/json", strings.NewReader("{garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("garbage body: status %d", resp.StatusCode)
	}
}

func TestTuneBadSearcherFailsJob(t *testing.T) {
	_, ts := newTestServer(t)
	var job Job
	code := postJSON(t, ts.URL+"/v1/tune?sync=1",
		TuneRequest{Benchmark: "fop", Searcher: "nope"}, &job)
	if code != 200 || job.State != "failed" || job.Error == "" {
		t.Errorf("bad searcher should fail the job: %d %+v", code, job)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	if code := getJSON(t, ts.URL+"/v1/jobs/999", nil); code != 404 {
		t.Errorf("missing job: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/abc", nil); code != 400 {
		t.Errorf("bad job id: status %d", code)
	}
}

func TestMeasureEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var def, big MeasureResponse
	if code := postJSON(t, ts.URL+"/v1/measure",
		MeasureRequest{Benchmark: "h2"}, &def); code != 200 {
		t.Fatalf("measure status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/measure",
		MeasureRequest{Benchmark: "h2", Args: []string{"-Xmx4g", "-Xms4g"}}, &big); code != 200 {
		t.Fatalf("measure status %d", code)
	}
	if big.WallSeconds >= def.WallSeconds {
		t.Error("4g heap should beat defaults on h2")
	}
	// A crashing combination is a 422, not a 400.
	if code := postJSON(t, ts.URL+"/v1/measure",
		MeasureRequest{Benchmark: "h2", Args: []string{"-Xmx128m"}}, nil); code != 422 {
		t.Errorf("OOM measure: status %d", code)
	}
	// A malformed flag is a 400.
	if code := postJSON(t, ts.URL+"/v1/measure",
		MeasureRequest{Benchmark: "h2", Args: []string{"-XX:+NoSuch"}}, nil); code != 400 {
		t.Errorf("bad flag: status %d", code)
	}
}

// Regression: a submission naming a flag the registry does not define must
// come back as a typed validation failure — a 400 with the JSON error
// envelope — and must never panic a worker. Config.Set's panic-on-unknown
// sibling (MustSet-style accessors) used to be one missed validation away
// from network input.
func TestMeasureUnknownFlagIsTyped400(t *testing.T) {
	_, ts := newTestServer(t)
	for _, args := range [][]string{
		{"-XX:BogusFlagName=17"},
		{"-XX:+TotallyMadeUp"},
		{"-XX:-AlsoNotReal"},
	} {
		var envelope map[string]string
		code := postJSON(t, ts.URL+"/v1/measure",
			MeasureRequest{Benchmark: "h2", Args: args}, &envelope)
		if code != 400 {
			t.Errorf("args %v: status %d, want 400", args, code)
		}
		if !strings.Contains(envelope["error"], "unrecognized VM option") {
			t.Errorf("args %v: error envelope %q lacks the VM diagnostic", args, envelope)
		}
	}
	// The same typed error is observable below the HTTP layer.
	_, err := hotspot.Measure([]string{"-XX:BogusFlagName=17"}, "h2", 0)
	var unknown *flags.UnknownFlagError
	if !errors.As(err, &unknown) || unknown.Name != "BogusFlagName" {
		t.Fatalf("Measure error %v is not a typed UnknownFlagError", err)
	}
	// The worker survived: a well-formed request still answers.
	if code := postJSON(t, ts.URL+"/v1/measure",
		MeasureRequest{Benchmark: "h2"}, nil); code != 200 {
		t.Fatalf("server unhealthy after bad submissions: status %d", code)
	}
}

func TestResultRoundTripsThroughJSON(t *testing.T) {
	// The job's embedded hotspot.Result must serialize usefully: command
	// line, improvement, trace.
	_, ts := newTestServer(t)
	var job Job
	postJSON(t, ts.URL+"/v1/tune?sync=1",
		TuneRequest{Benchmark: "startup.xml.validation", BudgetMinutes: 20, Seed: 3}, &job)
	if job.Result == nil {
		t.Fatal("no result")
	}
	if len(job.Result.CommandLine) == 0 {
		t.Error("command line missing from JSON result")
	}
	if len(job.Result.Trace) == 0 {
		t.Error("trace missing from JSON result")
	}
	var r hotspot.Result = *job.Result
	if r.Collector == "" {
		t.Error("collector missing")
	}
}
