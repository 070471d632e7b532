package evald

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/dispatch"
)

// FuzzEvaluateBatchEnvelope throws arbitrary bytes at the batched
// evaluate endpoint and holds its wire contract: a 200 always carries a
// BatchResult with exactly one entry per requested trial (each entry a
// result or a well-formed per-entry envelope), everything else is a 4xx
// ErrorEnvelope — never a panic, never a 5xx for a bad input. The JSON
// seeds, and the JSON corpus under testdata/fuzz, are bodies of the
// protocol generation before the binary wire, and must be refused.
func FuzzEvaluateBatchEnvelope(f *testing.F) {
	seeds := [][]byte{
		[]byte(``),
		[]byte(`{`),
		[]byte(`{"trials":[]}`),
		[]byte(`{"trials":[{"key":"","benchmark":"fop","reps":1,"noise":-1}]}`),
		[]byte(`{"trials":[{"key":"","benchmark":"fop","reps":1,"noise":-1},{"key":"","benchmark":"quake3","reps":1,"noise":-1}]}`),
		[]byte(`{"trials":[{"key":"mismatch","benchmark":"fop","reps":1,"noise":-1}]}`),
		[]byte(`{"trials":[{"key":"","benchmark":"fop","reps":-2,"noise":-1}]}`),
		[]byte(`{"trials":[{"key":"","benchmark":"fop","reps":1,"noise":-1,"surprise":1}]}`),
		[]byte(`{"trials":null}`),
		[]byte(`{"trials":[{}]}{"trials":[]}`),
		[]byte("\x00\xff"),
	}
	tr := func(key, bench string, reps int) dispatch.TrialRequest {
		return dispatch.TrialRequest{Key: key, Benchmark: bench, Reps: reps, Noise: -1}
	}
	for _, req := range []*dispatch.BatchRequest{
		batchOf(),
		batchOf(trialRequest()),
		batchOf(tr("", "fop", 1), tr("", "quake3", 1)),
		batchOf(tr("mismatch", "fop", 1)),
		batchOf(tr("", "fop", -2)),
	} {
		body := encode(f, req)
		seeds = append(seeds, body, append(body, 0))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	srv := New(Config{MaxConcurrent: 4})
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, dispatch.EvaluateBatchPath, bytes.NewReader(body))
		srv.ServeHTTP(w, r)
		holdsAnswerContract(t, body, w)
	})
}

// holdsAnswerContract checks the evaluate endpoint's answer w to body: a
// body the batch decoder accepts gets a 200 carrying one entry per
// trial, each a result or a well-formed envelope, and the batch
// re-encodes to bytes that decode to it; any other body — a JSON one
// among them — gets a 4xx envelope.
func holdsAnswerContract(t *testing.T, body []byte, w *httptest.ResponseRecorder) {
	t.Helper()
	req, err := dispatch.DecodeBatchRequest(body)
	if err != nil {
		if w.Code < 400 || w.Code >= 500 {
			t.Fatalf("refused body %q answered with status %d (body %q) — want 4xx", body, w.Code, w.Body)
		}
		env := decodeEnvelope(t, w)
		if len(body) > 0 && body[0] == '{' && env.Code != dispatch.CodeBadPayload {
			t.Fatalf("JSON body refused with %+v, want %s", env, dispatch.CodeBadPayload)
		}
		return
	}
	if w.Code != http.StatusOK {
		t.Fatalf("accepted body answered with status %d (body %q) — want 200", w.Code, w.Body)
	}
	res, err := dispatch.DecodeBatchResult(w.Body.Bytes(), req)
	if err != nil {
		t.Fatalf("200 with a body the answer decoder refuses: %v", err)
	}
	for i, e := range res.Entries {
		if (e.Result == nil) == (e.Error == nil) {
			t.Fatalf("entry %d is not exactly-one-of result/error: %+v", i, e)
		}
		if e.Error != nil && (e.Error.Code == "" || e.Error.Error == "") {
			t.Fatalf("entry %d envelope missing fields: %+v", i, e.Error)
		}
	}
	again, err := dispatch.DecodeBatchRequest(encode(t, req))
	if err != nil {
		t.Fatalf("re-encoded batch refused: %v", err)
	}
	if !reflect.DeepEqual(req, again) {
		t.Fatalf("round trip changed the batch:\nin:  %+v\nout: %+v", req, again)
	}
}
