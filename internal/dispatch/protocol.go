package dispatch

import (
	"fmt"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
)

// The wire protocol between a tuning session and an evald measurement node
// is one JSON round trip per batch of evaluation attempts (a single
// attempt travels as a batch of one; see batch.go). Each attempt names the
// trial by its canonical config key and carries everything the measurement
// is a function of — command-line args, benchmark name, noise-rep base,
// repetition count, timeout, and noise level — so any node computes the
// byte-identical measurement. A result is the runner.Measurement plus the
// answering node's name; rejections are ErrorEnvelope with a stable
// machine code, mirroring the httpapi admission envelopes.

// Wire protocol bounds. A config is a few dozen flags; anything past the
// caps is a malformed or hostile payload.
const (
	// MaxReps bounds repetitions per request; the paper uses single-digit
	// rep counts, so anything large is a bogus payload, not a workload.
	MaxReps = 1024
	// MaxArgs bounds the command-line argument count per request.
	MaxArgs = 4096
)

// Rejection codes carried in ErrorEnvelope.Code. Stable wire contract.
const (
	// CodeBadPayload: the body was not a well-formed request, or a trial
	// broke the request bounds.
	CodeBadPayload = "bad-payload"
	// CodeBadFlag: an argument referenced an unknown flag or malformed
	// value (flags.UnknownFlagError and friends).
	CodeBadFlag = "bad-flag"
	// CodeBadBenchmark: the benchmark name resolved to no built-in profile.
	CodeBadBenchmark = "bad-benchmark"
	// CodeKeyMismatch: the declared trial key does not match the canonical
	// key of the parsed configuration.
	CodeKeyMismatch = "key-mismatch"
	// CodeBusy: the node's admission control shed the request (HTTP 429).
	CodeBusy = "busy"
	// CodeMethod: wrong HTTP method or path usage (HTTP 405).
	CodeMethod = "method"
	// CodeInternal: the node hit an unexpected internal error (HTTP 500).
	CodeInternal = "internal"
	// CodeUnauthorized: the peer presented no bearer token, a wrong one, or
	// no acceptable client certificate (HTTP 401). Fail-closed: nothing is
	// evaluated, registered, or deregistered without credentials.
	CodeUnauthorized = "unauthorized"
)

// TrialRequest is one evaluation attempt on the wire.
type TrialRequest struct {
	// Key is the canonical configuration key (flags.Config.Key) the caller
	// derived; the node re-derives it from Args and rejects on mismatch so
	// a corrupted request can never be attributed to the wrong trial.
	Key string `json:"key"`
	// Benchmark names a built-in workload profile (workload.ByName).
	Benchmark string `json:"benchmark"`
	// Args is the canonical -XX: command line of the configuration
	// (flags.Config.ExplicitArgs): its assignments off their defaults plus
	// the forced defaults whose explicitness matters, so everything the VM
	// can tell apart survives the wire and parses back to Key. A node
	// accepts any explicit superset up to MaxArgs; one whose build keys
	// differently rejects with key-mismatch (docs/DISTRIBUTED.md).
	Args []string `json:"args,omitempty"`
	// RepBase is the first noise-rep index of this attempt; the session's
	// runner allocates rep indices so retries are fresh measurements.
	RepBase int `json:"rep_base"`
	// Reps is the repetition count.
	Reps int `json:"reps"`
	// TimeoutSeconds is the harness kill threshold; 0 disables it.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Noise is the simulator's relative noise stddev. Negative means the
	// simulator default (jvmsim.DefaultNoise); the field is explicit so
	// every node measures under the session's noise model.
	Noise float64 `json:"noise"`
	// Phase and Shift carry phase-shifting workloads (drift sessions; see
	// internal/jvmsim.PhaseShift) over the wire: the node applies Shift to
	// the resolved base profile before measuring. Both are omitted in phase
	// 0, so stationary sessions emit byte-identical requests to builds
	// without drift support — and nodes of an older protocol generation
	// fail closed on the unknown fields rather than silently measuring the
	// un-shifted workload (the fleet must be upgraded in lockstep to run
	// drift jobs; see docs/DISTRIBUTED.md).
	Phase int                `json:"phase,omitempty"`
	Shift *jvmsim.PhaseShift `json:"shift,omitempty"`
}

// TrialResult is a successful evaluation on the wire.
type TrialResult struct {
	// Node names the evaluator that produced the measurement (diagnostic
	// only — the measurement is node-independent by construction).
	Node string `json:"node,omitempty"`
	// Measurement is the attempt's outcome, before retry accounting.
	Measurement runner.Measurement `json:"measurement"`
}

// wireMeasurement is runner.Measurement's wire form: the same field names
// the plain struct would emit, but with omitempty throughout. A successful
// trial leaves half the fields at their zero values (failure diagnostics,
// cache and retry accounting), and at batch width the reflection walk over
// those absent fields on both encode and decode is a measurable per-trial
// tax. Decoding an omitted field yields its zero value, so the round trip
// is exact.
type wireMeasurement struct {
	Key              string             `json:"Key,omitempty"`
	Walls            []float64          `json:"Walls,omitempty"`
	Mean             float64            `json:"Mean,omitempty"`
	Pauses           []float64          `json:"Pauses,omitempty"`
	MeanPause        float64            `json:"MeanPause,omitempty"`
	Failed           bool               `json:"Failed,omitempty"`
	Failure          jvmsim.FailureKind `json:"Failure,omitempty"`
	FailureMessage   string             `json:"FailureMessage,omitempty"`
	CostSeconds      float64            `json:"CostSeconds,omitempty"`
	HedgeCostSeconds float64            `json:"HedgeCostSeconds,omitempty"`
	FromCache        bool               `json:"FromCache,omitempty"`
	Attempts         int                `json:"Attempts,omitempty"`
	Flakes           int                `json:"Flakes,omitempty"`
	Transient        bool               `json:"Transient,omitempty"`
}

type wireTrialResult struct {
	Node        string          `json:"node,omitempty"`
	Measurement wireMeasurement `json:"measurement"`
}

// toWire converts a TrialResult to its compact wire form. Conversions
// happen once per message at the serialization boundary (never via custom
// Marshaler/Unmarshaler methods, which would force the json package to
// re-scan every nested message).
func toWire(t *TrialResult) wireTrialResult {
	m := t.Measurement
	return wireTrialResult{Node: t.Node, Measurement: wireMeasurement{
		Key: m.Key, Walls: m.Walls, Mean: m.Mean, Pauses: m.Pauses,
		MeanPause: m.MeanPause, Failed: m.Failed, Failure: m.Failure,
		FailureMessage: m.FailureMessage, CostSeconds: m.CostSeconds,
		HedgeCostSeconds: m.HedgeCostSeconds, FromCache: m.FromCache,
		Attempts: m.Attempts, Flakes: m.Flakes, Transient: m.Transient,
	}}
}

// fromWire converts the wire form back; omitted fields land on their zero
// values, so the round trip reproduces the original struct exactly.
func fromWire(w *wireTrialResult) *TrialResult {
	m := w.Measurement
	return &TrialResult{Node: w.Node, Measurement: runner.Measurement{
		Key: m.Key, Walls: m.Walls, Mean: m.Mean, Pauses: m.Pauses,
		MeanPause: m.MeanPause, Failed: m.Failed, Failure: m.Failure,
		FailureMessage: m.FailureMessage, CostSeconds: m.CostSeconds,
		HedgeCostSeconds: m.HedgeCostSeconds, FromCache: m.FromCache,
		Attempts: m.Attempts, Flakes: m.Flakes, Transient: m.Transient,
	}}
}

// ErrorEnvelope is the JSON body of every evald rejection: a stable
// machine code, a human diagnostic, and — for shed requests — a retry
// hint. A bogus payload yields this envelope with status 400, never a
// worker panic.
type ErrorEnvelope struct {
	Error             string `json:"error"`
	Code              string `json:"code"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// rejects reports whether a batch entry's envelope is a verdict on its
// trial that every node would repeat, rather than a fault of the node
// that answered (internal, busy, unauthorized), which another node may
// not share.
func (e *ErrorEnvelope) rejects() bool {
	return e != nil && e.Error != "" &&
		e.Code != CodeInternal && e.Code != CodeBusy && e.Code != CodeUnauthorized
}

// RequestError is a typed protocol rejection: the request itself is
// invalid, every node would refuse it the same way, and the dispatch layer
// treats it as a deterministic verdict rather than a node fault.
type RequestError struct {
	Code string
	msg  string
}

func (e *RequestError) Error() string { return e.msg }

func reject(code, format string, args ...any) *RequestError {
	return &RequestError{Code: code, msg: fmt.Sprintf(format, args...)}
}

// Validate checks the request's self-contained invariants (bounds and
// required fields). Flag parsing and benchmark resolution happen later,
// against a registry and profile table, and return their own codes.
func (q *TrialRequest) Validate() error {
	// Note: an empty Key is legitimate — it is the canonical key of the
	// all-defaults configuration (the baseline trial). Key integrity is
	// enforced by ParseConfigInto's mismatch check instead.
	switch {
	case q.Benchmark == "":
		return reject(CodeBadPayload, "dispatch: request missing benchmark")
	case q.Reps < 1 || q.Reps > MaxReps:
		return reject(CodeBadPayload, "dispatch: reps %d outside [1, %d]", q.Reps, MaxReps)
	case q.RepBase < 0 || q.RepBase > 1<<40:
		return reject(CodeBadPayload, "dispatch: rep base %d out of range", q.RepBase)
	case len(q.Args) > MaxArgs:
		return reject(CodeBadPayload, "dispatch: %d args exceed limit %d", len(q.Args), MaxArgs)
	case q.TimeoutSeconds < 0 || q.TimeoutSeconds > 1e9:
		return reject(CodeBadPayload, "dispatch: timeout %g out of range", q.TimeoutSeconds)
	case q.Noise > 1:
		return reject(CodeBadPayload, "dispatch: noise %g out of range", q.Noise)
	case q.Phase < 0 || q.Phase > 1<<20:
		return reject(CodeBadPayload, "dispatch: phase %d out of range", q.Phase)
	case q.Phase > 0 && q.Shift == nil:
		return reject(CodeBadPayload, "dispatch: phase %d without a shift", q.Phase)
	case q.Phase == 0 && q.Shift != nil:
		return reject(CodeBadPayload, "dispatch: shift without a phase")
	}
	if q.Shift != nil {
		if err := q.Shift.Validate(); err != nil {
			return reject(CodeBadPayload, "dispatch: %v", err)
		}
	}
	return nil
}

// ParseConfigInto resolves the request's Args into cfg (resetting it
// first) and verifies the declared key matches the canonical key of the
// parsed configuration. The evaluation hot path pairs it with
// Registry.AcquireConfig so a node serving thousands of trials never
// allocates a Config per request.
func (q *TrialRequest) ParseConfigInto(cfg *flags.Config) error {
	if err := flags.ParseArgsInto(cfg, q.Args); err != nil {
		return reject(CodeBadFlag, "dispatch: parse args: %v", err)
	}
	if key := cfg.Key(); key != q.Key {
		return reject(CodeKeyMismatch, "dispatch: declared key %q but args derive %q", q.Key, key)
	}
	return nil
}
