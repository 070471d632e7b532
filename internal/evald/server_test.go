package evald

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/flags"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func trialRequest() dispatch.TrialRequest {
	cfg := flags.NewConfig(flags.NewRegistry())
	cfg.SetInt("MaxHeapSize", 1<<30)
	return dispatch.TrialRequest{
		Key: cfg.Key(), Benchmark: "fop", Args: cfg.ExplicitArgs(),
		Reps: 2, TimeoutSeconds: 120, Noise: -1,
	}
}

// batchOf is the batch of trials trs.
func batchOf(trs ...dispatch.TrialRequest) *dispatch.BatchRequest {
	return &dispatch.BatchRequest{Trials: trs}
}

// encode is req's request body.
func encode(t testing.TB, req *dispatch.BatchRequest) []byte {
	t.Helper()
	data, err := dispatch.EncodeBatchRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// evaluateBody is one trial's request body: a batch of one.
func evaluateBody(t testing.TB) []byte { return encode(t, batchOf(trialRequest())) }

func post(s *Server, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, dispatch.EvaluateBatchPath, bytes.NewReader(body))
	s.ServeHTTP(w, r)
	return w
}

// decodeOne decodes a 200 answer to req, a batch of one.
func decodeOne(t *testing.T, w *httptest.ResponseRecorder, req *dispatch.BatchRequest) *dispatch.BatchResult {
	t.Helper()
	res, err := dispatch.DecodeBatchResult(w.Body.Bytes(), req)
	if err != nil {
		t.Fatalf("decode result: %v (body %q)", err, w.Body.String())
	}
	return res
}

func decodeEnvelope(t *testing.T, w *httptest.ResponseRecorder) dispatch.ErrorEnvelope {
	t.Helper()
	var env dispatch.ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("rejection body is not an envelope: %v (body %q)", err, w.Body.String())
	}
	if env.Code == "" || env.Error == "" {
		t.Fatalf("envelope missing code or error: %+v", env)
	}
	return env
}

func TestEvaluateHappyPath(t *testing.T) {
	s := New(Config{Node: "w1"})
	req := batchOf(trialRequest())
	w := post(s, encode(t, req))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	batch := decodeOne(t, w, req)
	res := batch.Entries[0].Result
	if res == nil {
		t.Fatalf("entry is not a result: %+v", batch.Entries[0].Error)
	}
	if batch.Node != "w1" || res.Node != "w1" {
		t.Errorf("node = %q/%q, want w1", batch.Node, res.Node)
	}
	if res.Measurement.Failed || len(res.Measurement.Walls) != 2 {
		t.Fatalf("unexpected measurement: %+v", res.Measurement)
	}
}

func TestEvaluateSameRequestSameBytes(t *testing.T) {
	s := New(Config{})
	body := evaluateBody(t)
	a, b := post(s, body), post(s, body)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("status %d/%d", a.Code, b.Code)
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatal("a node must answer identical requests with identical bytes")
	}
}

// TestEvaluateRejections: a body that is not a batch — garbage, or the
// JSON of an older protocol generation — is refused whole with a 400
// envelope; a trial the node will not measure is refused in its own
// entry, worded exactly as a dispatch.Local node words it.
func TestEvaluateRejections(t *testing.T) {
	s := New(Config{})
	prof, _ := workload.ByName("fop")
	local := dispatch.NewLocal(prof, "")
	trial := func(key, bench string, args ...string) []byte {
		return encode(t, batchOf(dispatch.TrialRequest{Key: key, Benchmark: bench, Args: args, Reps: 1, Noise: -1}))
	}
	cases := []struct {
		name string
		body []byte
		code string
	}{
		{"garbage", []byte(`%%%%`), dispatch.CodeBadPayload},
		{"json body", []byte(`{"trials":[{"key":"","benchmark":"fop","reps":1,"noise":-1}]}`), dispatch.CodeBadPayload},
		{"unknown benchmark", trial("", "quake3"), dispatch.CodeBadBenchmark},
		{"unknown flag", trial("", "fop", "-XX:+FTLDrive"), dispatch.CodeBadFlag},
		{"key mismatch", trial("wrong", "fop"), dispatch.CodeKeyMismatch},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := post(s, c.body)
			req, err := dispatch.DecodeBatchRequest(c.body)
			if err != nil {
				if w.Code != http.StatusBadRequest {
					t.Fatalf("status %d, want 400 (body %s)", w.Code, w.Body)
				}
				if env := decodeEnvelope(t, w); env.Code != c.code {
					t.Fatalf("code %q, want %q", env.Code, c.code)
				}
				return
			}
			if w.Code != http.StatusOK {
				t.Fatalf("status %d, want 200 with a rejected entry (body %s)", w.Code, w.Body)
			}
			env := decodeOne(t, w, req).Entries[0].Error
			if env == nil || env.Code != c.code {
				t.Fatalf("entry envelope %+v, want code %q", env, c.code)
			}
			want, err := local.EvaluateBatch(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(env, want.Entries[0].Error) {
				t.Fatalf("evald rejected with %+v, Local with %+v", env, want.Entries[0].Error)
			}
		})
	}
}

// TestNonFiniteAnswerIsInternal: an answer the encoder refuses — a NaN
// in a measurement — is the node's fault, sent as a 500 internal
// envelope that the controller re-dispatches.
func TestNonFiniteAnswerIsInternal(t *testing.T) {
	req := batchOf(trialRequest())
	res := &dispatch.BatchResult{Entries: []dispatch.BatchEntry{{Result: &dispatch.TrialResult{
		Measurement: runner.Measurement{Key: req.Trials[0].Key, Mean: math.NaN()}}}}}
	w := httptest.NewRecorder()
	body, err := dispatch.EncodeBatchResult(res, req)
	writeResult(w, body, err)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if env := decodeEnvelope(t, w); env.Code != dispatch.CodeInternal {
		t.Fatalf("code %q, want %q", env.Code, dispatch.CodeInternal)
	}
}

func TestEvaluateMethodNotAllowed(t *testing.T) {
	s := New(Config{})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, dispatch.EvaluateBatchPath, nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", w.Code)
	}
	if env := decodeEnvelope(t, w); env.Code != dispatch.CodeMethod {
		t.Fatalf("code %q, want %q", env.Code, dispatch.CodeMethod)
	}
}

func TestEvaluateOversizedBody(t *testing.T) {
	s := New(Config{})
	w := post(s, bytes.Repeat([]byte("x"), dispatch.MaxBatchRequestBytes+1))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if env := decodeEnvelope(t, w); env.Code != dispatch.CodeBadPayload {
		t.Fatalf("code %q, want %q", env.Code, dispatch.CodeBadPayload)
	}
}

func TestEvaluateShedsWhenSaturated(t *testing.T) {
	tel := telemetry.New()
	s := New(Config{MaxConcurrent: 1, Telemetry: tel})
	s.sem <- struct{}{} // occupy the only slot
	w := post(s, evaluateBody(t))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	env := decodeEnvelope(t, w)
	if env.Code != dispatch.CodeBusy || env.RetryAfterSeconds < 1 {
		t.Fatalf("busy envelope: %+v", env)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("shed responses should carry Retry-After")
	}
	if tel.Counter("evald_shed_total").Value() != 1 {
		t.Error("shed should be counted")
	}
	<-s.sem
	if w := post(s, evaluateBody(t)); w.Code != http.StatusOK {
		t.Fatalf("freed node should serve again, got %d", w.Code)
	}
}

func TestHealthz(t *testing.T) {
	s := New(Config{Node: "w9"})
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, dispatch.HealthPath, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var h struct {
		Status string `json:"status"`
		Node   string `json:"node"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Node != "w9" {
		t.Fatalf("health = %+v", h)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := New(Config{})
	post(s, evaluateBody(t))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "evald_evaluations_total") {
		t.Fatalf("metrics missing evaluation counter:\n%s", w.Body)
	}
}

// TestRemoteAgainstServer closes the loop: the dispatch.Remote client
// against a real evald server over a socket classifies success, protocol
// rejections, and shedding exactly as the Pool expects.
func TestRemoteAgainstServer(t *testing.T) {
	s := New(Config{Node: "w1"})
	ts := httptest.NewServer(s)
	defer ts.Close()
	rem, err := dispatch.NewSecureRemote(strings.TrimPrefix(ts.URL, "http://"), nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	req := trialRequest()
	res, err := rem.Evaluate(ctx, &req)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if res.Node != "w1" || res.Measurement.Key != req.Key {
		t.Fatalf("unexpected result: %+v", res)
	}
	if err := rem.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// A protocol rejection must classify as permanent.
	bad := req
	bad.Key = "mismatched"
	_, err = rem.Evaluate(ctx, &bad)
	var ne *dispatch.NodeError
	if !errors.As(err, &ne) || !ne.Permanent || ne.Code != dispatch.CodeKeyMismatch {
		t.Fatalf("want permanent key-mismatch NodeError, got %v", err)
	}

	// A dead socket must classify as transient.
	ts.Close()
	_, err = rem.Evaluate(ctx, &req)
	if !errors.As(err, &ne) || ne.Permanent {
		t.Fatalf("want transient NodeError from dead socket, got %v", err)
	}
}

// TestAnswersCarryContentLength: an answer longer than net/http's 2 KiB
// response buffer goes out chunked unless the handler sets
// Content-Length, and then the controller cannot size its read. Both a
// 64-trial batch answer and a batch of one trial at 256 reps are past
// 2 KiB.
func TestAnswersCarryContentLength(t *testing.T) {
	ts := httptest.NewServer(New(Config{Node: "w1"}))
	defer ts.Close()
	reg := flags.NewRegistry()
	trial := func(i, reps int) dispatch.TrialRequest {
		c := flags.NewConfig(reg)
		c.SetInt("MaxHeapSize", int64(256+64*i)<<20)
		return dispatch.TrialRequest{
			Key: c.Key(), Benchmark: "fop", Args: c.ExplicitArgs(),
			RepBase: 8 * i, Reps: reps, TimeoutSeconds: 120, Noise: -1,
		}
	}
	batch := &dispatch.BatchRequest{}
	for i := 0; i < 64; i++ {
		batch.Trials = append(batch.Trials, trial(i, 1))
	}
	single := batchOf(trial(0, 256))
	for _, c := range []struct {
		name string
		req  *dispatch.BatchRequest
	}{
		{"batch of 64", batch},
		{"batch of one", single},
	} {
		resp, err := ts.Client().Post(ts.URL+dispatch.EvaluateBatchPath, "application/octet-stream",
			bytes.NewReader(encode(t, c.req)))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", c.name, resp.StatusCode, data)
		}
		if len(data) <= 2048 {
			t.Fatalf("%s: a %d-byte answer fits net/http's buffer and proves nothing", c.name, len(data))
		}
		if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte answer",
				c.name, resp.ContentLength, resp.TransferEncoding, len(data))
		}
	}
}
