package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// EvaluateBatchPath is the evald measurement endpoint: one round trip per
// batch of trials, a single trial being a batch of one.
const EvaluateBatchPath = "/v1/evaluate-batch"

// HealthPath is the evald liveness endpoint heartbeats probe.
const HealthPath = "/healthz"

// NodeError classifies a failed placement on one node. Transport faults
// (connection refused, 5xx, shed, garbled response) are transient: the
// trial is silently re-dispatched elsewhere and the node marked suspect.
// Permanent errors are protocol rejections (4xx envelopes): every node
// would refuse the same request, so re-dispatching is pointless and the
// rejection becomes a deterministic verdict for the trial.
type NodeError struct {
	// Node names the evaluator that failed.
	Node string
	// Status is the HTTP status when the node answered at all.
	Status int
	// Code is the envelope code for protocol rejections.
	Code string
	// Permanent marks a deterministic protocol rejection.
	Permanent bool
	// RetryAfter is the node's own backoff hint (429 shed responses). The
	// pool honors it as a cooldown floor instead of hammering a loaded node.
	RetryAfter time.Duration
	// Err is the underlying cause.
	Err error
}

func (e *NodeError) Error() string {
	verb := "placement failed"
	if e.Permanent {
		verb = "rejected trial"
	}
	s := fmt.Sprintf("dispatch: node %s %s", e.Node, verb)
	if e.Status != 0 {
		s += fmt.Sprintf(" (http %d)", e.Status)
	}
	if e.Code != "" {
		s += fmt.Sprintf(" [%s]", e.Code)
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *NodeError) Unwrap() error { return e.Err }

// Remote is the HTTP Evaluator: one POST per batch of evaluation attempts
// against an evald node, in the binary wire of wire.go. Safe for
// concurrent use.
type Remote struct {
	base string
	// Client is the HTTP client; defaults to a dedicated client so node
	// connection pools are independent of the ambient default transport.
	Client *http.Client
	// Token is the shared bearer credential stamped on every request.
	Token string
	// NodeName overrides the fleet identity (Name); empty means the base
	// URL. Dynamic membership sets it so the pool, the lease table, and
	// the fleet journal all key a joined node by its registered name.
	NodeName string
}

// NewSecureRemote builds a remote evaluator for addr, which may be a bare
// "host:port" or a full "http://..." base URL. Its transport and requests
// carry sec's credentials, if any: the client TLS material for the dial
// and the bearer token on every request. A bare "host:port" addr gets the
// scheme the security config implies.
func NewSecureRemote(addr string, sec *Security) (*Remote, error) {
	if sec == nil {
		sec = &Security{}
	}
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = sec.Scheme() + "://" + base
	}
	client, err := sec.HTTPClient()
	if err != nil {
		return nil, err
	}
	return &Remote{base: base, Client: client, Token: sec.Token}, nil
}

// Name implements Evaluator; the node is named by its base URL unless
// NodeName overrides it.
func (r *Remote) Name() string {
	if r.NodeName != "" {
		return r.NodeName
	}
	return r.base
}

// requestTimeout bounds one round trip in real time: an evaluate-batch
// POST or a health probe. It is generous, because the simulator answers in
// microseconds and anything slower is a sick node, and a batch is served
// concurrently node-side, so its wall time tracks the slowest trial, not
// the sum.
const requestTimeout = 30 * time.Second

func (r *Remote) fail(status int, err error) *NodeError {
	return &NodeError{Node: r.base, Status: status, Err: err}
}

// post runs one evaluate-batch round trip and returns the status,
// response body (capped at MaxBatchRequestBytes), and headers. Transport
// faults come back as transient NodeErrors.
func (r *Remote) post(ctx context.Context, req *BatchRequest) (int, []byte, http.Header, error) {
	body, err := EncodeBatchRequest(req)
	if err != nil {
		return 0, nil, nil, r.fail(0, err)
	}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+EvaluateBatchPath, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, r.fail(0, err)
	}
	hr.Header.Set("Content-Type", "application/octet-stream")
	if r.Token != "" {
		hr.Header.Set("Authorization", "Bearer "+r.Token)
	}
	resp, err := r.Client.Do(hr)
	if err != nil {
		return 0, nil, nil, r.fail(0, err)
	}
	defer resp.Body.Close()
	// Size the read buffer from Content-Length: growing a fresh buffer
	// through io.ReadAll is measurable garbage at batch width. The spare
	// MinRead bytes let bytes.Buffer see EOF without growing.
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n < MaxBatchRequestBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, MaxBatchRequestBytes)); err != nil {
		return resp.StatusCode, nil, resp.Header, r.fail(resp.StatusCode, fmt.Errorf("read response: %w", err))
	}
	return resp.StatusCode, buf.Bytes(), resp.Header, nil
}

// retryAfterHint extracts the node's backoff hint from a shed response:
// the standard Retry-After header (delay-seconds form) or the envelope's
// retry_after_seconds field, whichever is present.
func retryAfterHint(h http.Header, data []byte) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(h.Get("Retry-After"))); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err == nil && env.RetryAfterSeconds > 0 {
		return time.Duration(env.RetryAfterSeconds) * time.Second
	}
	return 0
}

// classify turns a non-200 response into the NodeError the pool acts on.
func (r *Remote) classify(status int, data []byte, h http.Header) error {
	switch {
	case status == http.StatusUnauthorized:
		// The node refused our credentials. That is a property of this
		// controller↔node pairing, not of the trial — another node with
		// matching credentials can still serve it — so the error is
		// transient (the breaker quarantines the misconfigured node) but
		// keeps its code for diagnostics and fail-closed accounting.
		return &NodeError{Node: r.base, Status: status, Code: CodeUnauthorized, Err: fmt.Errorf("credentials rejected")}
	case status == http.StatusTooManyRequests:
		// Shed load is the node's problem, and the trial goes elsewhere —
		// but the node told us when it wants to be bothered again, and the
		// pool honors that as its cooldown floor.
		return &NodeError{Node: r.base, Status: status, Code: CodeBusy, RetryAfter: retryAfterHint(h, data), Err: fmt.Errorf("node shedding load")}
	case status >= 400 && status < 500:
		// A 4xx envelope is the node refusing the request itself: a
		// deterministic verdict, not a node fault.
		var env ErrorEnvelope
		if err := json.Unmarshal(data, &env); err != nil || env.Error == "" {
			// A 4xx without a well-formed envelope is not our protocol
			// speaking; treat the node as broken, not the request.
			return r.fail(status, fmt.Errorf("malformed rejection body"))
		}
		return &NodeError{Node: r.base, Status: status, Code: env.Code, Permanent: true, Err: fmt.Errorf("%s", env.Error)}
	default:
		// 5xx or anything else: the node is sick.
		return r.fail(status, fmt.Errorf("unexpected status"))
	}
}

// Evaluate implements Evaluator as a batch of one. A rejected trial comes
// back as a permanent NodeError carrying the entry's code.
func (r *Remote) Evaluate(ctx context.Context, req *TrialRequest) (*TrialResult, error) {
	res, err := r.EvaluateBatch(ctx, &BatchRequest{Trials: []TrialRequest{*req}})
	if err != nil {
		return nil, err
	}
	switch e := res.Entries[0]; {
	case e.Result != nil:
		return e.Result, nil
	case e.Error != nil:
		return nil, &NodeError{Node: r.base, Code: e.Error.Code, Permanent: e.Error.rejects(), Err: errors.New(e.Error.Error)}
	}
	return nil, r.fail(http.StatusOK, errors.New("empty batch entry"))
}

// EvaluateBatch ships a whole batch of trials in one round trip. A non-OK
// response or an answer DecodeBatchResult refuses fails the batch as one
// transient transport fault (the caller salvages nothing and advances the
// breaker once); an OK response carries one entry per trial, each
// settling its own trial independently.
func (r *Remote) EvaluateBatch(ctx context.Context, req *BatchRequest) (*BatchResult, error) {
	status, data, hdr, err := r.post(ctx, req)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, r.classify(status, data, hdr)
	}
	res, err := DecodeBatchResult(data, req)
	if err != nil {
		return nil, r.fail(status, err)
	}
	return res, nil
}

// Ping probes the node's liveness endpoint; used by Pool heartbeats.
func (r *Remote) Ping(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+HealthPath, nil)
	if err != nil {
		return r.fail(0, err)
	}
	resp, err := r.Client.Do(hr)
	if err != nil {
		return r.fail(0, err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r.fail(resp.StatusCode, fmt.Errorf("unhealthy"))
	}
	return nil
}
