package dispatch

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/flags"
	"repro/internal/workload"
)

func wantCode(t *testing.T, err error, code string) {
	t.Helper()
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("want *RequestError(%s), got %T: %v", code, err, err)
	}
	if re.Code != code {
		t.Fatalf("code = %q, want %q (err: %v)", re.Code, code, err)
	}
}

func validRequest(t *testing.T) *TrialRequest {
	t.Helper()
	reg := flags.NewRegistry()
	cfg := flags.NewConfig(reg)
	cfg.SetInt("MaxHeapSize", 1<<30)
	return &TrialRequest{
		Key: cfg.Key(), Benchmark: "fop", Args: cfg.ExplicitArgs(),
		RepBase: 0, Reps: 2, TimeoutSeconds: 60, Noise: -1,
	}
}

// batchOfOne renders req as the body a controller ships it in.
func batchOfOne(t *testing.T, req *TrialRequest) []byte {
	t.Helper()
	data, err := EncodeBatchRequest(&BatchRequest{Trials: []TrialRequest{*req}})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// verdictCode is the code a node answers a batch body with: the
// envelope of a body DecodeBatchRequest refuses, else its one entry's
// (empty for a measurement).
func verdictCode(t *testing.T, body []byte) string {
	t.Helper()
	b, err := DecodeBatchRequest(body)
	if err != nil {
		var re *RequestError
		if !errors.As(err, &re) {
			t.Fatalf("want *RequestError, got %T: %v", err, err)
		}
		return re.Code
	}
	res := EvalBatch(poolProfile(t, "fop"), flags.NewRegistry(), b)
	if len(res.Entries) != 1 {
		t.Fatalf("batch of one answered with %d entries", len(res.Entries))
	}
	if e := res.Entries[0].Error; e != nil {
		return e.Code
	}
	return ""
}

func TestDecodeTrialRequestRoundTrip(t *testing.T) {
	req := validRequest(t)
	got, err := DecodeBatchRequest(batchOfOne(t, req))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Trials) != 1 || !reflect.DeepEqual(&got.Trials[0], req) {
		t.Fatalf("round trip mangled the request: %+v", got.Trials)
	}
}

// TestDecodeTrialRequestRejections: a malformed body is refused whole, a
// well-formed trial outside the request bounds in its own entry; both
// with bad-payload. A JSON body, the wire of the protocol generation
// before the binary one, is malformed whatever it holds.
func TestDecodeTrialRequestRejections(t *testing.T) {
	valid := batchOfOne(t, validRequest(t))
	bodies := []struct {
		name string
		body []byte
	}{
		{"empty", []byte{requestTag, 1}},
		{"not json", []byte(`{"trials":[]][[]}`)},
		{"wrong type", []byte(`{"trials":[{"key":17,"benchmark":"fop","reps":1,"noise":-1}]}`)},
		{"truncated", valid[:len(valid)/2]},
		// A field the wire does not know is a flag bit it does not know.
		{"unknown field", append([]byte{valid[0], valid[1], 0x40}, valid[3:]...)},
		{"trailing data", append(slices.Clone(valid), valid...)},
	}
	for _, c := range bodies {
		t.Run(c.name, func(t *testing.T) {
			if code := verdictCode(t, c.body); code != CodeBadPayload {
				t.Fatalf("code = %q, want %q", code, CodeBadPayload)
			}
		})
	}
	trials := []struct {
		name string
		mut  func(*TrialRequest)
	}{
		{"missing benchmark", func(q *TrialRequest) { q.Benchmark = "" }},
		{"zero reps", func(q *TrialRequest) { q.Reps = 0 }},
		{"huge reps", func(q *TrialRequest) { q.Reps = 99999 }},
		{"negative rep base", func(q *TrialRequest) { q.RepBase = -1 }},
		{"negative timeout", func(q *TrialRequest) { q.TimeoutSeconds = -5 }},
		{"absurd noise", func(q *TrialRequest) { q.Noise = 40 }},
		{"noise just past the bound", func(q *TrialRequest) { q.Noise = math.Nextafter(MaxNoise, 2) }},
	}
	for _, c := range trials {
		t.Run(c.name, func(t *testing.T) {
			q := validRequest(t)
			c.mut(q)
			if code := verdictCode(t, batchOfOne(t, q)); code != CodeBadPayload {
				t.Fatalf("code = %q, want %q", code, CodeBadPayload)
			}
		})
	}
}

func TestParseConfigRejectsUnknownFlag(t *testing.T) {
	req := validRequest(t)
	req.Args = []string{"-XX:+EnableTimeTravel"}
	if code := verdictCode(t, batchOfOne(t, req)); code != CodeBadFlag {
		t.Fatalf("code = %q, want %q", code, CodeBadFlag)
	}
}

func TestParseConfigRejectsKeyMismatch(t *testing.T) {
	req := validRequest(t)
	req.Key = "lies"
	if code := verdictCode(t, batchOfOne(t, req)); code != CodeKeyMismatch {
		t.Fatalf("code = %q, want %q", code, CodeKeyMismatch)
	}
}

func TestEvalRejectsWrongBenchmark(t *testing.T) {
	prof, _ := workload.ByName("h2")
	req := validRequest(t) // declares fop
	_, err := Eval(prof, flags.NewRegistry(), req)
	wantCode(t, err, CodeBadBenchmark)
}

func TestEvalMeasures(t *testing.T) {
	prof, _ := workload.ByName("fop")
	req := validRequest(t)
	res, err := Eval(prof, flags.NewRegistry(), req)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if res.Measurement.Key != req.Key {
		t.Fatalf("measurement key %q != request key %q", res.Measurement.Key, req.Key)
	}
	if res.Measurement.Failed || len(res.Measurement.Walls) != req.Reps {
		t.Fatalf("unexpected measurement: %+v", res.Measurement)
	}
}

// TestEvalRepBaseShiftsNoise: the same trial at different rep bases is a
// different draw — the mechanism that makes retries fresh measurements —
// while the same rep base reproduces bytes exactly.
func TestEvalRepBaseShiftsNoise(t *testing.T) {
	prof, _ := workload.ByName("fop")
	reg := flags.NewRegistry()
	req := validRequest(t)

	a, err := Eval(prof, reg, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Eval(prof, reg, req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Measurement.Mean != b.Measurement.Mean {
		t.Fatal("identical requests must produce identical measurements")
	}
	shifted := *req
	shifted.RepBase = 100
	c, err := Eval(prof, reg, &shifted)
	if err != nil {
		t.Fatal(err)
	}
	if c.Measurement.Mean == a.Measurement.Mean {
		t.Fatal("shifting the rep base should draw fresh noise")
	}
}

func TestNodeErrorMessage(t *testing.T) {
	ne := &NodeError{Node: "n1", Status: 503, Err: errors.New("boom")}
	if msg := ne.Error(); !strings.Contains(msg, "n1") || !strings.Contains(msg, "boom") {
		t.Fatalf("node error should name the node and cause: %q", msg)
	}
	if !errors.Is(ne, ne.Err) && ne.Unwrap() == nil {
		t.Fatal("node error should unwrap its cause")
	}
}
