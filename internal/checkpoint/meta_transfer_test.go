package checkpoint

import (
	"bytes"
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

// TestMetaTransferOmittedWhenCold keeps transfer-off snapshots byte-identical
// to those of builds that predate the field.
func TestMetaTransferOmittedWhenCold(t *testing.T) {
	s := &Snapshot{Meta: Meta{Workload: "h2", Searcher: "random", Objective: "throughput", Seed: 1, Reps: 3}, Baseline: fuzzBaseline()}
	if bytes.Contains(encoded(t, s), []byte(`"transfer"`)) {
		t.Fatal("cold snapshot serializes a transfer field")
	}
}
