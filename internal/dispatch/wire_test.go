package dispatch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/flags"
	"repro/internal/flags/flagstest"
	"repro/internal/jvmsim"
	"repro/internal/runner"
)

// filler sets every exported field it reaches to a value no other field
// holds: strings (each ending in a byte that is not UTF-8) and numbers
// count up, bools take a bit of the count, and pointers point at a filled
// value. Lists take three shapes in turn — two elements, empty, nil — from
// an offset, so that filling with offsets 0, 1 and 2 gives every list
// field every shape. A field of a kind the filler does not know fails the
// test, as a field the wire drops does: a new field needs a codec change.
type filler struct {
	t      *testing.T
	offset int
	n      int // values handed out
	lists  int // lists shaped
}

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		f.n++
		v.SetString(fmt.Sprintf("s%d\xff", f.n))
	case reflect.Int:
		f.n++
		v.SetInt(int64(f.n))
	case reflect.Float64:
		f.n++
		v.SetFloat(float64(f.n) + 0.25)
	case reflect.Bool:
		f.n++
		v.SetBool((f.n>>f.offset)&1 == 1)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem())
		v.Set(p)
	case reflect.Slice:
		f.lists++
		switch (f.lists + f.offset) % 3 {
		case 0:
			l := reflect.MakeSlice(v.Type(), 2, 2)
			f.fill(l.Index(0))
			f.fill(l.Index(1))
			v.Set(l)
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.SetZero()
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	default:
		f.t.Fatalf("no filler for a field of type %s", v.Type())
	}
}

// filledBatch is a four-trial request and its answer with every field
// filled with offset's shapes. The entries hold a result and an error, a
// result, an error, and neither; the first trial has no phase shift; the
// first result's measurement carries its trial's key, which the wire
// writes once, and the second names the batch's node.
func filledBatch(t *testing.T, offset int) (*BatchRequest, *BatchResult) {
	f := &filler{t: t, offset: offset}
	req := &BatchRequest{Trials: make([]TrialRequest, 4)}
	for i := range req.Trials {
		f.fill(reflect.ValueOf(&req.Trials[i]).Elem())
	}
	req.Trials[0].Shift = nil
	res := &BatchResult{Entries: make([]BatchEntry, 4)}
	f.fill(reflect.ValueOf(&res.Node).Elem())
	for i := range res.Entries {
		f.fill(reflect.ValueOf(&res.Entries[i]).Elem())
	}
	res.Entries[0].Result.Measurement.Key = req.Trials[0].Key
	res.Entries[1].Result.Node = res.Node
	res.Entries[1].Error = nil
	res.Entries[2].Result = nil
	res.Entries[3] = BatchEntry{}
	return req, res
}

// TestWireDropsNoField: a request and its answer whose every field holds
// a distinct value — lists nil, empty and full, strings with invalid
// UTF-8, a trial with and without a phase shift, entries with a result,
// an error, both and neither — come back from the wire exactly as they
// went in, and so does an answer whose entry list is nil or empty.
func TestWireDropsNoField(t *testing.T) {
	for offset := range 3 {
		t.Run(fmt.Sprint("offset ", offset), func(t *testing.T) {
			req, res := filledBatch(t, offset)
			body, err := EncodeBatchRequest(req)
			if err != nil {
				t.Fatal(err)
			}
			gotReq, err := DecodeBatchRequest(body)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotReq, req) {
				t.Fatalf("request round trip:\ngot  %+v\nwant %+v", gotReq, req)
			}
			body, err = EncodeBatchResult(res, req)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := DecodeBatchResult(body, req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, res) {
				t.Fatalf("answer round trip:\ngot  %+v\nwant %+v", gotRes, res)
			}
		})
	}
	for _, entries := range [][]BatchEntry{nil, {}} {
		res := &BatchResult{Node: "n\xff", Entries: entries}
		body, err := EncodeBatchResult(res, &BatchRequest{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBatchResult(body, &BatchRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("answer round trip:\ngot  %#v\nwant %#v", got, res)
		}
	}
}

// TestDecodeBatchResultOwnsItsStrings: the answer decoder's twin of
// TestDecodeBatchRequestOwnsItsStrings. Overwriting the answer body
// changes nothing that was decoded, and a measurement's key is the
// controller's own string, so a session's cache pins no answer body.
func TestDecodeBatchResultOwnsItsStrings(t *testing.T) {
	req, res := filledBatch(t, 0)
	body, err := EncodeBatchResult(res, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchResult(body, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'x'
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("decoded answer changed when the body was overwritten:\ngot  %+v\nwant %+v", got, res)
	}
	if k := got.Entries[0].Result.Measurement.Key; unsafe.StringData(k) != unsafe.StringData(req.Trials[0].Key) {
		t.Fatalf("decoded key %q is not the trial's own string", k)
	}
}

// wireRequest is a two-trial request with drift fields and args, and an
// answer to it holding a measurement and an error envelope.
func wireRequest(t *testing.T) (*BatchRequest, *BatchResult) {
	shift := jvmsim.DefaultShift()
	reg := flags.NewRegistry()
	cfg := flagstest.Proposal(reg, 1)
	req := &BatchRequest{Trials: []TrialRequest{
		{Key: cfg.Key(), Benchmark: "h2", Args: cfg.ExplicitArgs(), RepBase: 7, Reps: 2,
			TimeoutSeconds: 120, Noise: 0.5, Phase: 1, Shift: &shift},
		{Key: "k", Benchmark: "h2", Reps: 1, Noise: -1},
	}}
	res := &BatchResult{Node: "n0", Entries: []BatchEntry{
		{Result: &TrialResult{Node: "n0", Measurement: runner.Measurement{
			Key: req.Trials[0].Key, Walls: []float64{1.5, 2.5}, Mean: 2, CostSeconds: 4, Attempts: 1}}},
		{Error: &ErrorEnvelope{Error: "dispatch: parse args: boom", Code: CodeBadFlag}},
	}}
	return req, res
}

// TestWireRefusesMalformedBodies: the decoders are strict. A JSON body
// is refused naming the older protocol generation; a wrong tag, every
// truncation of a valid body, a count past the remaining bytes or a
// protocol bound, unknown flag bits, a non-finite float and trailing
// bytes are refused whole, with bad-payload, on both sides of the wire.
func TestWireRefusesMalformedBodies(t *testing.T) {
	req, res := wireRequest(t)
	reqBody, err := EncodeBatchRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	resBody, err := EncodeBatchResult(res, req)
	if err != nil {
		t.Fatal(err)
	}
	decodeReq := func(b []byte) error { _, err := DecodeBatchRequest(b); return err }
	decodeRes := func(b []byte) error { _, err := DecodeBatchResult(b, req); return err }
	refused := func(name string, decode func([]byte) error, body []byte, want string) {
		t.Helper()
		err := decode(body)
		var re *RequestError
		if !errors.As(err, &re) || re.Code != CodeBadPayload || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want a bad-payload refusal naming %q", name, err, want)
		}
	}
	set := func(body []byte, at int, b ...byte) []byte {
		out := bytes.Clone(body)
		copy(out[at:], b)
		return out
	}
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	half := binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5))
	two := binary.LittleEndian.AppendUint64(nil, math.Float64bits(2))

	for _, side := range []struct {
		name   string
		decode func([]byte) error
		body   []byte
		flags  int    // offset of the first trial's or entry's flag byte
		float  []byte // the bytes of a float field the body holds
	}{
		{"request", decodeReq, reqBody, 2, half},
		{"answer", decodeRes, resBody, 1 + 1 + len(res.Node) + 1, two},
	} {
		refused(side.name+" JSON", side.decode, []byte(`{"trials":[]}`), "older protocol generation")
		refused(side.name+" garbage", side.decode, []byte("garbage"), "does not open with tag")
		refused(side.name+" empty", side.decode, nil, "does not open with tag")
		for n := 1; n < len(side.body); n++ {
			refused(fmt.Sprintf("%s cut at %d", side.name, n), side.decode, side.body[:n], "decode batch")
		}
		refused(side.name+" unknown flag bits", side.decode, set(side.body, side.flags, 0x80), "malformed body")
		refused(side.name+" non-finite float", side.decode,
			set(side.body, bytes.Index(side.body, side.float), nan...), "malformed body")
		refused(side.name+" trailing bytes", side.decode, append(bytes.Clone(side.body), 0), "1 trailing bytes")
	}
	refused("request count past the body", decodeReq, []byte{requestTag, 0x7f}, "malformed body")
	big := binary.AppendUvarint([]byte{requestTag}, MaxBatchTrials+2)
	big = append(big, make([]byte, (MaxBatchTrials+1)*minTrialBytes)...)
	refused("request past the batch limit", decodeReq, big, "exceed batch limit")
	wide := &BatchRequest{Trials: []TrialRequest{{Key: "k", Benchmark: "h2", Reps: 1,
		Args: make([]string, MaxArgs+1)}}}
	body, err := EncodeBatchRequest(wide)
	if err != nil {
		t.Fatal(err)
	}
	refused("request past the args limit", decodeReq, body, "args exceed limit")
	body, err = EncodeBatchRequest(&BatchRequest{Trials: []TrialRequest{}})
	if err != nil {
		t.Fatal(err)
	}
	refused("empty batch", decodeReq, body, "empty batch")
	one := &BatchRequest{Trials: req.Trials[:1]}
	refused("answer for more trials", func(b []byte) error { _, err := DecodeBatchResult(b, one); return err },
		resBody, "2 entries for 1 trials")
}

// TestEncodeBatchResultNonFinite: a NaN or an infinity in any float of an
// answer fails its encoder, which a node answers with a 500 internal
// envelope (evald's TestNonFiniteAnswerIsInternal), and in a request fails
// that encoder, which a controller counts as a failed placement.
func TestEncodeBatchResultNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := range 6 {
			req, res := wireRequest(t)
			tr, m := &req.Trials[0], &res.Entries[0].Result.Measurement
			*[]*float64{&tr.TimeoutSeconds, &tr.Noise, &tr.Shift.BaseFactor, &m.Mean, &m.Walls[1], &m.CostSeconds}[i] = bad
			_, reqErr := EncodeBatchRequest(req)
			_, resErr := EncodeBatchResult(res, req)
			if (reqErr == nil) == (i < 3) || (resErr == nil) == (i >= 3) {
				t.Errorf("float %d = %v: request err %v, answer err %v", i, bad, reqErr, resErr)
			}
		}
	}
	_, res := wireRequest(t)
	if _, err := EncodeBatchResult(res, &BatchRequest{}); err == nil {
		t.Error("an answer with more entries than trials encoded")
	}
}

// TestEncodeBatchRequestRoundTrip: requests with the string and float
// shapes most likely to expose an encoding bug — quotes, backslashes,
// control bytes, multi-byte UTF-8, nil and empty args, large rep bases —
// and a drift trial come back from the wire unchanged.
func TestEncodeBatchRequestRoundTrip(t *testing.T) {
	reqs := []*BatchRequest{
		{Trials: []TrialRequest{{Key: "a=1 b=2", Benchmark: "fop", RepBase: 0, Reps: 3, Noise: -1}}},
		{Trials: []TrialRequest{{
			Key: "k", Benchmark: "fop", Args: []string{"-Xmx256m", "-XX:+UseParallelGC"},
			RepBase: 5, Reps: 1, TimeoutSeconds: 2.5, Noise: 0.05,
		}}},
		{Trials: []TrialRequest{{Key: "empty args", Benchmark: "fop", Args: []string{}, Reps: 1, Noise: 1e-3}}},
		{Trials: []TrialRequest{
			{Key: `quote " backslash \ newline` + "\n", Benchmark: "tab\tbench", Reps: 2, Noise: 0},
			{Key: "ünïcode ☃", Benchmark: "fop", Args: []string{"", "ctrl\x01"}, RepBase: 1 << 30, Reps: 7, Noise: 4.52984832e+08},
		}},
		{Trials: []TrialRequest{{Key: "drift", Benchmark: "fop", Reps: 1, Noise: -1,
			Phase: 2, Shift: &jvmsim.PhaseShift{AllocFactor: 1.5}}}},
	}
	for _, req := range reqs {
		body, err := EncodeBatchRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBatchRequest(body)
		if err != nil {
			t.Fatalf("encoder output refused: %v", err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip changed the batch:\nin:  %+v\nout: %+v", req, got)
		}
	}
}
