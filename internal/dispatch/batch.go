package dispatch

// Batched dispatch ships several evaluation attempts in one HTTP round
// trip, amortizing the per-trial wire overhead (BENCH_2.json records
// ~90 µs/trial for single-trial loopback dispatch; a real-JVM runner makes
// that negligible, but the simulator answers in microseconds, so the hop
// dominates). The batch is transport aggregation only: every trial inside
// it keeps its own key, rep base, and verdict, so a batch is semantically
// identical to its trials dispatched one by one — which is exactly how the
// differential suite proves batched sessions byte-identical to unbatched
// and in-process ones. Its bytes on the wire are in wire.go.

// Batch protocol bounds.
const (
	// MaxBatchTrials bounds trials per batch request. Controllers batch at
	// most a round's worth of proposals (the worker count), so anything
	// past this is a bogus payload, not a workload.
	MaxBatchTrials = 256
	// MaxBatchRequestBytes bounds an evaluate-batch request body.
	MaxBatchRequestBytes = 8 << 20
)

// BatchRequest is one batched dispatch round trip: up to MaxBatchTrials
// evaluation attempts that the node answers positionally.
type BatchRequest struct {
	Trials []TrialRequest
}

// BatchEntry is the per-trial outcome inside a BatchResult: exactly one of
// Result or Error is set. A per-trial rejection condemns only its own
// trial — the siblings in the batch settle normally.
type BatchEntry struct {
	Result *TrialResult
	Error  *ErrorEnvelope
}

// BatchResult answers a BatchRequest: Entries[i] is the verdict for
// Trials[i]. A well-formed response always carries exactly one entry per
// requested trial; anything else is a broken node, not a protocol answer.
type BatchResult struct {
	// Node names the evaluator that served the batch (diagnostic only).
	Node    string
	Entries []BatchEntry
}

// Validate checks the batch envelope's self-contained invariants. The
// trials themselves are validated individually by the serving node so one
// bogus trial yields a per-entry rejection, not a whole-batch 400.
func (b *BatchRequest) Validate() error { return checkBatchSize(len(b.Trials)) }

// checkBatchSize refuses an empty batch and one past MaxBatchTrials.
func checkBatchSize(n int) error {
	switch {
	case n == 0:
		return reject(CodeBadPayload, "dispatch: empty batch")
	case n > MaxBatchTrials:
		return reject(CodeBadPayload, "dispatch: %d trials exceed batch limit %d", n, MaxBatchTrials)
	}
	return nil
}
