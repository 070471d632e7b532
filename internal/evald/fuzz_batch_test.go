package evald

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dispatch"
)

// FuzzEvaluateBatchEnvelope throws arbitrary bytes at the batched
// evaluate endpoint and holds its wire contract: a 200 always carries a
// BatchResult with exactly one entry per requested trial (each entry a
// result or a well-formed per-entry envelope), everything else is a 4xx
// ErrorEnvelope — never a panic, never a 5xx for a bad input.
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
// 200 carries a BatchResult with one entry per requested trial, each a
// result or a well-formed envelope; anything else is a 4xx envelope.
func holdsAnswerContract(t *testing.T, body []byte, w *httptest.ResponseRecorder) {
	t.Helper()
	var req dispatch.BatchRequest
	wantEntries := -1
	if json.Unmarshal(body, &req) == nil {
		wantEntries = len(req.Trials)
	}
	switch {
	case w.Code == http.StatusOK:
		var res dispatch.BatchResult
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
			t.Fatalf("200 with non-BatchResult body %q: %v", w.Body, err)
		}
		if wantEntries >= 0 && len(res.Entries) != wantEntries {
			t.Fatalf("%d trials answered by %d entries", wantEntries, len(res.Entries))
		}
		for i, e := range res.Entries {
			if (e.Result == nil) == (e.Error == nil) {
				t.Fatalf("entry %d is not exactly-one-of result/error: %+v", i, e)
			}
			if e.Error != nil && (e.Error.Code == "" || e.Error.Error == "") {
				t.Fatalf("entry %d envelope missing fields: %+v", i, e.Error)
			}
		}
	case w.Code >= 400 && w.Code < 500:
		var env dispatch.ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("%d with non-envelope body %q: %v", w.Code, w.Body, err)
		}
		if env.Code == "" || env.Error == "" {
			t.Fatalf("%d envelope missing fields: %+v", w.Code, env)
		}
	default:
		t.Fatalf("bogus payload produced status %d (body %q) — want 200 or 4xx", w.Code, w.Body)
	}
}
