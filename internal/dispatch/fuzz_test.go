package dispatch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// FuzzDecodeRegisterRequest holds the registration decoder's contract:
// arbitrary bytes either yield a validated request or a typed
// *RequestError, and any accepted request survives a re-encode round trip
// unchanged. The seed corpus under testdata/fuzz covers the
// malformed-registration taxonomy (missing addr, oversized names, bogus
// TTLs, unknown fields, trailing data).
func FuzzDecodeRegisterRequest(f *testing.F) {
	seeds := [][]byte{
		[]byte(``),
		[]byte(`{`),
		[]byte(`null`),
		[]byte(`{"addr":"10.0.0.1:7421"}`),
		[]byte(`{"addr":"10.0.0.1:7421","node":"n1","ttl_seconds":30}`),
		[]byte(`{"node":"orphan"}`),
		[]byte(`{"addr":"10.0.0.1:7421","ttl_seconds":-5}`),
		[]byte(`{"addr":"10.0.0.1:7421","ttl_seconds":999999}`),
		[]byte(`{"addr":"10.0.0.1:7421","surprise":true}`),
		[]byte(`{"addr":"10.0.0.1:7421"}{"addr":"x"}`),
		[]byte("\x00\x01\xff"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		q, err := DecodeRegisterRequest(body)
		if err != nil {
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("rejection is not a *RequestError: %v", err)
			}
			return
		}
		out, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("accepted registration fails to re-encode: %v", err)
		}
		again, err := DecodeRegisterRequest(out)
		if err != nil {
			t.Fatalf("re-encoded registration rejected: %v (%s)", err, out)
		}
		if *q != *again {
			t.Fatalf("round trip changed the registration: %+v != %+v", q, again)
		}
	})
}

// FuzzDecodeBatchRequest holds the batch decoder's envelope contract:
// arbitrary bytes either yield a bounded batch or a typed *RequestError —
// per-trial validity is deliberately NOT the envelope's business, so an
// accepted batch may still carry trials a node will reject individually —
// and an accepted batch re-encodes to bytes that decode to the same batch.
// The JSON seeds, and the JSON corpus under testdata/fuzz, are bodies of
// the protocol generation before the binary wire, and must be refused.
func FuzzDecodeBatchRequest(f *testing.F) {
	seeds := [][]byte{
		[]byte(``),
		[]byte(`{}`),
		[]byte(`{"trials":[]}`),
		[]byte(`{"trials":[{"key":"","benchmark":"fop","reps":1,"noise":-1}]}`),
		[]byte(`{"trials":[{"key":"a","benchmark":"fop","reps":1,"noise":-1},{"key":"b","benchmark":"fop","reps":2,"noise":-1}]}`),
		[]byte(`{"trials":[{"key":"","benchmark":"quake3","reps":-9,"noise":-1}]}`),
		[]byte(`{"trials":null}`),
		[]byte(`{"trials":[{"key":"k","benchmark":"fop","args":["-Xmx256m","-XX:+UseParallelGC"],"rep_base":5,"reps":3,"timeout_seconds":2.5,"noise":0.05}]}`),
		[]byte(`{"trials":[{"key":"k","benchmark":"fop","args":[],"rep_base":0,"reps":1,"noise":-1}]}`),
		[]byte(`{"trials":[{"key":"k","benchmark":"fop","reps":1,"noise":-1,"phase":2}]}`),
		[]byte(`{"trials":[{"key":"k","benchmark":"fop","reps":1,"noise":-1,"shift":{"alloc":1.5,"live":0.8}}]}`),
		[]byte(`{"trials":[{"key":"k","benchmark":"fop","rep_base":1.5,"reps":1,"noise":-1}]}`),
		[]byte(`{"trials":[{"key":"über","benchmark":"fop","reps":1,"noise":1e-3}]}`),
		[]byte(`{"trials":[{}],"surprise":1}`),
		[]byte(`{"trials":[{"key":""}]}{"trials":[]}`),
		[]byte("\xff\xfe"),
	}
	shift := jvmsim.DefaultShift()
	for _, req := range []*BatchRequest{
		{Trials: []TrialRequest{}},
		{Trials: []TrialRequest{{Key: "", Benchmark: "fop", Reps: 1, Noise: -1}}},
		{Trials: []TrialRequest{{Key: "a", Benchmark: "fop", Reps: 1, Noise: -1}, {Key: "b", Benchmark: "fop", Reps: 2, Noise: -1}}},
		{Trials: []TrialRequest{{Key: "k", Benchmark: "fop", Args: []string{"-Xmx256m", "-XX:+UseParallelGC"},
			RepBase: 5, Reps: 3, TimeoutSeconds: 2.5, Noise: 0.05}}},
		{Trials: []TrialRequest{{Key: "k", Benchmark: "fop", Args: []string{}, Reps: 1, Noise: -1}}},
		{Trials: []TrialRequest{{Key: "k", Benchmark: "fop", Reps: 1, Noise: -1, Phase: 2, Shift: &shift}}},
		{Trials: []TrialRequest{{Key: "über\xff", Benchmark: "quake3", Reps: -9, Noise: 1e-3}}},
	} {
		body, err := EncodeBatchRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, body, append(body, 0), body[:len(body)-1])
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := DecodeBatchRequest(body)
		if err != nil {
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("rejection is not a *RequestError: %v", err)
			}
			return
		}
		if body[0] == '{' {
			t.Fatalf("accepted a JSON body %q", body)
		}
		if len(b.Trials) == 0 || len(b.Trials) > MaxBatchTrials {
			t.Fatalf("accepted batch outside bounds: %d trials", len(b.Trials))
		}
		out, err := EncodeBatchRequest(b)
		if err != nil {
			t.Fatalf("accepted batch fails to re-encode: %v", err)
		}
		again, err := DecodeBatchRequest(out)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("round trip changed the batch:\nin:  %+v\nout: %+v", b, again)
		}
	})
}

// FuzzRegistrationEnvelope throws arbitrary bytes at the controller's
// fleet endpoints and holds the membership wire contract: every response
// is 200 with a RegisterResponse (register), 200 (deregister), or 4xx
// with a well-formed ErrorEnvelope — never a panic, never a 5xx for a bad
// input, and a rejected registration never grows the fleet.
func FuzzRegistrationEnvelope(f *testing.F) {
	seeds := []struct {
		path string
		body []byte
	}{
		{RegisterPath, []byte(`{"addr":"127.0.0.1:1","node":"n1","ttl_seconds":30}`)},
		{RegisterPath, []byte(`{"node":"orphan"}`)},
		{RegisterPath, []byte(`{"addr":"127.0.0.1:1","bogus":true}`)},
		{RegisterPath, []byte(`{`)},
		{DeregisterPath, []byte(`{"node":"n1"}`)},
		{DeregisterPath, []byte(`{}`)},
		{DeregisterPath, []byte(`]][[`)},
	}
	for _, s := range seeds {
		f.Add(s.path == RegisterPath, s.body)
	}
	prof := fuzzProfile(f)
	f.Fuzz(func(t *testing.T, register bool, body []byte) {
		pool, err := NewDynamicPool(prof)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMembership(pool, nil)
		path := DeregisterPath
		if register {
			path = RegisterPath
		}
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		m.Handler().ServeHTTP(w, r)
		switch {
		case w.Code == http.StatusOK:
			if register {
				var res RegisterResponse
				if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
					t.Fatalf("200 with non-RegisterResponse body %q: %v", w.Body, err)
				}
				if res.LeaseSeconds <= 0 {
					t.Fatalf("granted a non-positive lease: %+v", res)
				}
				if len(pool.Nodes()) != 1 {
					t.Fatalf("accepted registration joined %d nodes, want 1", len(pool.Nodes()))
				}
			}
		case w.Code >= 400 && w.Code < 500:
			var env ErrorEnvelope
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Fatalf("%d with non-envelope body %q: %v", w.Code, w.Body, err)
			}
			if env.Code == "" || env.Error == "" {
				t.Fatalf("%d envelope missing fields: %+v", w.Code, env)
			}
			if register && len(pool.Nodes()) != 0 {
				t.Fatalf("rejected registration still grew the fleet: %v", pool.Nodes())
			}
		default:
			t.Fatalf("bogus payload produced status %d (body %q) — want 200 or 4xx", w.Code, w.Body)
		}
	})
}

func fuzzProfile(f *testing.F) *workload.Profile {
	p, ok := workload.ByName("fop")
	if !ok {
		f.Fatal("no workload fop")
	}
	return p
}

// FuzzDecodeBatchResult holds the answer decoder's contract against a
// request of 0 to 3 trials: arbitrary bytes are refused or give exactly
// one entry per trial, never a panic, and an accepted answer re-encodes
// to bytes that decode to the same answer.
func FuzzDecodeBatchResult(f *testing.F) {
	f.Add(uint8(0), []byte(``))
	f.Add(uint8(1), []byte(`{"node":"n1","entries":[{"error":{"error":"evald: worker crashed","code":"internal"}}]}`))
	for _, res := range []*BatchResult{
		{Node: "n1", Entries: []BatchEntry{}},
		{Node: "n1", Entries: []BatchEntry{{Result: &TrialResult{Node: "n1", Measurement: runner.Measurement{
			Key: "k0", Walls: []float64{1.25}, Mean: 1.25, Pauses: []float64{0.004}, MeanPause: 0.004,
			CostSeconds: 3.25, Attempts: 1}}}}},
		{Entries: []BatchEntry{
			{Result: &TrialResult{Measurement: runner.Measurement{Key: "other\xff", Failed: true, Failure: "crash",
				FailureMessage: "exit 134", CostSeconds: 0.5, Attempts: 2, Flakes: 1, Transient: true}}},
			{Error: &ErrorEnvelope{Error: "busy", Code: CodeBusy, RetryAfterSeconds: 3}},
			{},
		}},
	} {
		body, err := EncodeBatchResult(res, fuzzTrials(len(res.Entries)))
		if err != nil {
			f.Fatal(err)
		}
		n := uint8(len(res.Entries))
		f.Add(n, body)
		f.Add(n, append(body, 0))
		f.Add(n, body[:len(body)-1])
		f.Add(n+1, body)
	}
	f.Fuzz(func(t *testing.T, trials uint8, data []byte) {
		req := fuzzTrials(int(trials % 4))
		res, err := DecodeBatchResult(data, req)
		if err != nil {
			return
		}
		if len(res.Entries) != len(req.Trials) {
			t.Fatalf("%d trials answered by %d entries", len(req.Trials), len(res.Entries))
		}
		out, err := EncodeBatchResult(res, req)
		if err != nil {
			t.Fatalf("accepted answer fails to re-encode: %v", err)
		}
		again, err := DecodeBatchResult(out, req)
		if err != nil {
			t.Fatalf("re-encoded answer rejected: %v", err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("round trip changed the answer:\nin:  %+v\nout: %+v", res, again)
		}
	})
}

// fuzzTrials is a request of n trials keyed k0, k1, ...
func fuzzTrials(n int) *BatchRequest {
	req := &BatchRequest{Trials: make([]TrialRequest, n)}
	for i := range req.Trials {
		req.Trials[i] = TrialRequest{Key: fmt.Sprint("k", i), Benchmark: "fop", Reps: 1, Noise: -1}
	}
	return req
}
