package checkpoint

import (
	"strings"
	"testing"
)

// TestMetaTransferMismatch pins the warm-start resume guard: a checkpoint
// taken under one set of transfer priors refuses to resume under another
// (or cold), where measurement-log replay would diverge.
func TestMetaTransferMismatch(t *testing.T) {
	warm := Meta{Workload: "h2", Searcher: "surrogate", Transfer: "fp:abc k:3"}
	cold := warm
	cold.Transfer = ""
	if err := warm.Check(cold); err == nil || !strings.Contains(err.Error(), "transfer") {
		t.Fatalf("warm checkpoint resumed cold: %v", err)
	}
	if err := warm.Check(warm); err != nil {
		t.Fatalf("identical transfer fingerprints must match: %v", err)
	}
}

// TestMetaTransferOmittedWhenCold: a cold snapshot's transfer fingerprint
// stays empty through a write and a load, and a warm one's comes back
// whole.
func TestMetaTransferOmittedWhenCold(t *testing.T) {
	s := &Snapshot{Meta: Meta{Workload: "h2", Searcher: "random", Objective: "throughput", Seed: 1, Reps: 3}, Baseline: fuzzBaseline()}
	if got := mustDecode(t, encoded(t, s)).Meta; got != s.Meta {
		t.Fatalf("cold meta came back as %+v", got)
	}
	s.Meta.Transfer = "fp:abc k:3"
	if got := mustDecode(t, encoded(t, s)).Meta.Transfer; got != s.Meta.Transfer {
		t.Fatalf("warm transfer fingerprint came back as %q", got)
	}
}
