package dispatch

import (
	"bytes"
	"encoding/json"
	"io"
)

// Batched dispatch ships several evaluation attempts in one HTTP round
// trip, amortizing the per-trial wire overhead (BENCH_2.json records
// ~90 µs/trial for single-trial loopback dispatch; a real-JVM runner makes
// that negligible, but the simulator answers in microseconds, so the hop
// dominates). The batch is transport aggregation only: every trial inside
// it keeps its own key, rep base, and verdict, so a batch is semantically
// identical to its trials dispatched one by one — which is exactly how the
// differential suite proves batched sessions byte-identical to unbatched
// and in-process ones.

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
	Trials []TrialRequest `json:"trials"`
}

// BatchEntry is the per-trial outcome inside a BatchResult: exactly one of
// Result or Error is set. A per-trial rejection condemns only its own
// trial — the siblings in the batch settle normally.
type BatchEntry struct {
	Result *TrialResult   `json:"result,omitempty"`
	Error  *ErrorEnvelope `json:"error,omitempty"`
}

// BatchResult answers a BatchRequest: Entries[i] is the verdict for
// Trials[i]. A well-formed response always carries exactly one entry per
// requested trial; anything else is a broken node, not a protocol answer.
type BatchResult struct {
	// Node names the evaluator that served the batch (diagnostic only).
	Node    string       `json:"node,omitempty"`
	Entries []BatchEntry `json:"entries"`
}

// Validate checks the batch envelope's self-contained invariants. The
// trials themselves are validated individually by the serving node so one
// bogus trial yields a per-entry rejection, not a whole-batch 400.
func (b *BatchRequest) Validate() error {
	switch {
	case len(b.Trials) == 0:
		return reject(CodeBadPayload, "dispatch: empty batch")
	case len(b.Trials) > MaxBatchTrials:
		return reject(CodeBadPayload, "dispatch: %d trials exceed batch limit %d", len(b.Trials), MaxBatchTrials)
	}
	return nil
}

// DecodeBatchRequest parses and validates a batch envelope. Unknown fields
// fail closed, in the envelope and in every trial: a request from a
// different protocol generation must be rejected loudly, not
// half-understood. The hand-rolled scanner
// handles the shape our own controllers emit; anything it does not
// recognize — including unknown fields and drift requests — goes through
// the strict reflection decoder (see wirefast.go).
func DecodeBatchRequest(data []byte) (*BatchRequest, error) {
	if b, ok := fastDecodeBatchRequest(data); ok {
		if err := b.Validate(); err != nil {
			return nil, err
		}
		return b, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b BatchRequest
	if err := dec.Decode(&b); err != nil {
		return nil, reject(CodeBadPayload, "dispatch: decode batch: %v", err)
	}
	if dec.More() {
		return nil, reject(CodeBadPayload, "dispatch: trailing data after batch")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// The batch wire mirror: BatchResult with every entry in compact form.
// See wireMeasurement — field names are identical to the plain structs,
// only zero-valued fields are elided.
type wireBatchEntry struct {
	Result *wireTrialResult `json:"result,omitempty"`
	Error  *ErrorEnvelope   `json:"error,omitempty"`
}

type wireBatchResult struct {
	Node    string           `json:"node,omitempty"`
	Entries []wireBatchEntry `json:"entries"`
}

// MarshalBatchResult renders res in its compact wire form: the
// hand-rolled appender when the message is representable (see
// wireenc.go), one conversion and one reflection pass otherwise — same
// bytes-on-the-wire semantics either way.
func MarshalBatchResult(res *BatchResult) ([]byte, error) {
	if b, ok := encodeBatchResult(res); ok {
		return b, nil
	}
	var buf bytes.Buffer
	err := stdEncodeBatchResult(&buf, res)
	return buf.Bytes(), err
}

// stdEncodeBatchResult is the reflection path of MarshalBatchResult, kept
// callable on its own so the differential suite can compare the two
// encoders directly.
func stdEncodeBatchResult(w io.Writer, res *BatchResult) error {
	wire := wireBatchResult{Node: res.Node}
	if res.Entries != nil {
		wire.Entries = make([]wireBatchEntry, len(res.Entries))
	}
	scratch := make([]wireTrialResult, len(res.Entries))
	for i := range res.Entries {
		e := &res.Entries[i]
		if e.Result != nil {
			scratch[i] = toWire(e.Result)
			wire.Entries[i].Result = &scratch[i]
		}
		wire.Entries[i].Error = e.Error
	}
	return json.NewEncoder(w).Encode(&wire)
}

// batchFromWire converts a decoded wire mirror back to the plain structs,
// preserving the nil-vs-empty distinction of the entries slice (the
// differential fuzz target compares this against the fast scanner).
func batchFromWire(wire *wireBatchResult) *BatchResult {
	res := &BatchResult{Node: wire.Node}
	if wire.Entries != nil {
		res.Entries = make([]BatchEntry, len(wire.Entries))
	}
	for i := range wire.Entries {
		e := &wire.Entries[i]
		if e.Result != nil {
			res.Entries[i].Result = fromWire(e.Result)
		}
		res.Entries[i].Error = e.Error
	}
	return res
}

// decodeBatchResult is the client-side twin of MarshalBatchResult: the
// hand-rolled scanner when the body is exactly the shape our nodes emit,
// the reflection decoder for everything else (see wirefast.go).
func decodeBatchResult(data []byte) (*BatchResult, error) {
	if res, ok := fastDecodeBatchResult(data); ok {
		return res, nil
	}
	var wire wireBatchResult
	if err := decodeBody(data, &wire); err != nil {
		return nil, err
	}
	return batchFromWire(&wire), nil
}
