package httpapi

import (
	"net/http/httptest"
	"testing"
)

// TestTuneTransferJob drives the farm's knowledge base through the HTTP
// surface: a first transfer job trains the store cold, a second warm-starts
// from it, and the poll response carries the warm-start provenance under
// result.transfer.
func TestTuneTransferJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TransferDir = t.TempDir()
	s := newServer(t, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var cold Job
	code := postJSON(t, ts.URL+"/v1/tune?sync=1",
		TuneRequest{Benchmark: "h2", BudgetMinutes: 30, Seed: 3, Transfer: true}, &cold)
	if code != 200 {
		t.Fatalf("cold transfer tune status %d", code)
	}
	if cold.State != "done" || cold.Result == nil {
		t.Fatalf("cold job not done: %+v", cold)
	}
	x := cold.Result.Transfer
	if x == nil || x.Priors != 0 || !x.Recorded {
		t.Fatalf("cold transfer provenance wrong: %+v", x)
	}

	var warm Job
	if code := postJSON(t, ts.URL+"/v1/tune?sync=1",
		TuneRequest{Benchmark: "avrora", BudgetMinutes: 30, Seed: 4, Transfer: true}, &warm); code != 200 {
		t.Fatalf("warm transfer tune status %d", code)
	}
	x = warm.Result.Transfer
	if x == nil || x.Priors < 1 || x.StoreEntries != 1 {
		t.Fatalf("warm transfer provenance wrong: %+v", x)
	}
	if x.NearestWorkload != "h2" {
		t.Errorf("nearest workload %q, want h2", x.NearestWorkload)
	}

	// A job that does not opt in stays cold even though the farm has a
	// store — transfer is strictly per-request.
	var optOut Job
	if code := postJSON(t, ts.URL+"/v1/tune?sync=1",
		TuneRequest{Benchmark: "fop", BudgetMinutes: 15, Seed: 5}, &optOut); code != 200 {
		t.Fatalf("opt-out tune status %d", code)
	}
	if optOut.Result.Transfer != nil {
		t.Errorf("non-transfer job reports transfer provenance: %+v", optOut.Result.Transfer)
	}
}
