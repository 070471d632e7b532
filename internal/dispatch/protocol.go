package dispatch

import (
	"fmt"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
)

// The wire protocol between a tuning session and an evald measurement node
// is one binary round trip per batch of evaluation attempts (a single
// attempt travels as a batch of one; see batch.go, and wire.go for the
// bytes). Each attempt names the trial by its canonical config key and
// carries everything the measurement is a function of — command-line
// args, benchmark name, noise-rep base, repetition count, timeout, and
// noise level — so any node computes the byte-identical measurement. A
// result is the runner.Measurement plus the answering node's name;
// rejections are ErrorEnvelope with a stable machine code, mirroring the
// httpapi admission envelopes.

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
	Key string
	// Benchmark names a built-in workload profile (workload.ByName).
	Benchmark string
	// Args is the canonical -XX: command line of the configuration
	// (flags.Config.ExplicitArgs): its assignments off their defaults plus
	// the forced defaults whose explicitness matters, so everything the VM
	// can tell apart survives the wire and parses back to Key. A node
	// accepts any explicit superset up to MaxArgs; one whose build keys
	// differently rejects with key-mismatch (docs/DISTRIBUTED.md).
	Args []string
	// RepBase is the first noise-rep index of this attempt; the session's
	// runner allocates rep indices so retries are fresh measurements.
	RepBase int
	// Reps is the repetition count.
	Reps int
	// TimeoutSeconds is the harness kill threshold; 0 disables it.
	TimeoutSeconds float64
	// Noise is the simulator's relative noise stddev. Negative means the
	// simulator default (jvmsim.DefaultNoise); the field is explicit so
	// every node measures under the session's noise model.
	Noise float64
	// Phase and Shift carry phase-shifting workloads (drift sessions; see
	// internal/jvmsim.PhaseShift) over the wire: the node applies Shift to
	// the resolved base profile before measuring. Phase 0 has no shift.
	Phase int
	Shift *jvmsim.PhaseShift
}

// TrialResult is a successful evaluation on the wire.
type TrialResult struct {
	// Node names the evaluator that produced the measurement (diagnostic
	// only — the measurement is node-independent by construction).
	Node string
	// Measurement is the attempt's outcome, before retry accounting.
	Measurement runner.Measurement
}

// ErrorEnvelope is an evald rejection: a stable machine code, a human
// diagnostic, and — for shed requests — a retry hint. A request refused
// whole gets it as a JSON body with its status (a bogus payload a 400,
// never a worker panic); a trial refused in its own entry gets it inside
// the binary answer.
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
