package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/hotspot"
	"repro/internal/checkpoint"
)

// TestTuneDriftJob: a job submitted with "drift": true and a drift-scheduling
// chaos plan surfaces the per-epoch breakdown in its poll.
func TestTuneDriftJob(t *testing.T) {
	_, ts := newTestServer(t)
	var job Job
	code := postJSON(t, ts.URL+"/v1/tune?sync=1", TuneRequest{
		Benchmark: "xalan", BudgetMinutes: 150, Seed: 7, Workers: 3,
		Drift: true, Chaos: "drift-at=40",
	}, &job)
	if code != 200 {
		t.Fatalf("drift tune status %d", code)
	}
	if job.State != "done" || job.Result == nil {
		t.Fatalf("drift job not done: %+v", job)
	}
	if len(job.Result.Epochs) < 2 {
		t.Fatalf("drift job reported %d epochs, want a re-tune", len(job.Result.Epochs))
	}
	if job.Result.Epochs[0].DriftTrial <= 40 {
		t.Fatalf("drift confirmed at trial %d, before the shift at 40", job.Result.Epochs[0].DriftTrial)
	}

	// The poll's raw JSON carries the breakdown under result.epochs.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + itoa(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"epochs"`) || !strings.Contains(string(body), `"drift_trial"`) {
		t.Fatalf("poll body missing epoch keys: %s", body)
	}

	// The named drift scenario works through the same door.
	var sc Job
	if code := postJSON(t, ts.URL+"/v1/tune?sync=1", TuneRequest{
		Benchmark: "xalan", BudgetMinutes: 150, Seed: 7, Workers: 3,
		Drift: true, Chaos: "drift-midrun",
	}, &sc); code != 200 || sc.Result == nil || len(sc.Result.Epochs) < 2 {
		t.Fatalf("drift-midrun job: status %d, %+v", code, sc.Result)
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// TestTuneDriftValidation: malformed drift requests bounce with 400 at
// submission, not as failed jobs.
func TestTuneDriftValidation(t *testing.T) {
	_, ts := newTestServer(t)
	var errBody map[string]string
	if code := postJSON(t, ts.URL+"/v1/tune", TuneRequest{
		Benchmark: "fop", DriftSensitivity: 2,
	}, &errBody); code != 400 || !strings.Contains(errBody["error"], "drift") {
		t.Errorf("drift_sensitivity without drift: %d %v", code, errBody)
	}
	if code := postJSON(t, ts.URL+"/v1/tune", TuneRequest{
		Benchmark: "fop", Drift: true, DriftSensitivity: -1,
	}, &errBody); code != 400 {
		t.Errorf("negative drift_sensitivity: %d %v", code, errBody)
	}
}

// TestDegradedReasonVisibleInPoll pins the bugfix: a degraded job's poll
// carries the reason string verbatim under result.degraded_reason (the old
// Go-cased keys made the reason invisible to JSON clients).
func TestDegradedReasonVisibleInPoll(t *testing.T) {
	const reason = "real budget exhausted after 120.0s"
	stubTune(t, func(context.Context, hotspot.Options) (*hotspot.Result, error) {
		return &hotspot.Result{Benchmark: "fop", Degraded: true, DegradedReason: reason}, nil
	})
	s, ts := newTestServer(t)
	id := submitAsync(t, ts.URL, TuneRequest{Benchmark: "fop"})
	s.Wait()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + itoa(id))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"degraded_reason"`) ||
		!strings.Contains(string(body), reason) {
		t.Fatalf("degradation state missing from poll: %s", body)
	}
	job := pollJob(t, ts.URL, id)
	if !job.Result.Degraded || job.Result.DegradedReason != reason {
		t.Fatalf("decoded poll lost degradation state: %+v", job.Result)
	}
}

// TestDurableLegacyJournalDegradedReason: a journal written by a pre-fix
// build stored results under Go-cased keys ("Degraded"/"DegradedReason");
// replaying it must not lose the degradation state. Go's case folding
// rescues "Degraded" on its own, but "DegradedReason" does not fold onto
// "degraded_reason" — exactly the field the legacy shim exists for.
func TestDurableLegacyJournalDegradedReason(t *testing.T) {
	dir := t.TempDir()
	j, _, err := checkpoint.OpenJournal(filepath.Join(dir, "farm.journal"), checkpoint.JournalKind, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"op":"submit","id":1,"request":{"benchmark":"fop","seed":3}}`,
		`{"op":"state","id":1,"state":"running"}`,
		`{"op":"done","id":1,"state":"done","result":{"Benchmark":"fop","BestWall":12.5,"Degraded":true,"DegradedReason":"session canceled"}}`,
	} {
		if err := j.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	stubTune(t, func(context.Context, hotspot.Options) (*hotspot.Result, error) {
		t.Error("terminal legacy job was re-run")
		return nil, nil
	})
	s, ts := newDurableServer(t, dir, Config{MaxConcurrent: 1, MaxJobs: 4})
	defer s.Shutdown(context.Background())
	job := pollJob(t, ts.URL, 1)
	if job.State != "done" || job.Result == nil {
		t.Fatalf("legacy job not replayed: %+v", job)
	}
	if !job.Result.Degraded || job.Result.DegradedReason != "session canceled" {
		t.Fatalf("legacy degradation state lost on replay: %+v", job.Result)
	}
	if job.Result.BestWall != 12.5 {
		t.Fatalf("legacy result fields lost: %+v", job.Result)
	}
}
