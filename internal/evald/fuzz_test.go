package evald

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/dispatch"
)

// FuzzEvaluateEnvelope throws arbitrary bytes at the evaluate endpoint
// as the one trial of a batch, the shape every single-trial placement
// ships in, and holds FuzzEvaluateBatchEnvelope's wire contract. The seed
// corpus under testdata/fuzz covers the malformed-trial taxonomy (bad
// JSON, unknown fields and flags, truncated bodies, key mismatches, bogus
// bounds) in the JSON trials of the protocol generation before the binary
// wire, each of which must be refused; the binary seeds cover it on the
// wire of this one. Whole-body shapes are FuzzEvaluateBatchEnvelope's.
func FuzzEvaluateEnvelope(f *testing.F) {
	seeds := [][]byte{
		[]byte(``),
		[]byte(`{`),
		[]byte(`]][[`),
		[]byte(`{"key":"","benchmark":"fop","reps":1,"noise":-1}`),
		[]byte(`{"key":"","benchmark":"fop","reps":1,"noise":-1,"surprise":true}`),
		[]byte(`{"key":"","benchmark":"fop","args":["-XX:+NoSuchFlag"],"reps":1,"noise":-1}`),
		[]byte(`{"key":"mismatch","benchmark":"fop","reps":1,"noise":-1}`),
		[]byte(`{"key":"","benchmark":"quake3","reps":1,"noise":-1}`),
		[]byte(`{"key":"","benchmark":"fop","reps":-3,"noise":-1}`),
		[]byte(`{"key":"","benchmark":"fop","reps":1,"rep_base":900719925474,"noise":-1}`),
		[]byte(`{"key":"","benchmark":"fop","reps":1,"noise":1e308}`),
		[]byte(`{"key":"","benchmark":"fop","reps":1,"noise":-1}{"key":""}`),
		[]byte(`{"key":"","benchmark":"fop","reps":1,"timeout_seconds":-1,"noise":-1}`),
		[]byte("\x00\x01\x02\xff"),
	}
	for _, tr := range trialSeeds() {
		b := trialBytes(f, tr)
		seeds = append(seeds, b, b[:len(b)-1])
	}
	for _, s := range seeds {
		f.Add(s)
	}
	srv := New(Config{MaxConcurrent: 4})
	f.Fuzz(func(t *testing.T, trial []byte) {
		body := batchOfOne(trial)
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, dispatch.EvaluateBatchPath, bytes.NewReader(body))
		srv.ServeHTTP(w, r) // the handler's recover would turn a panic into a 500
		holdsAnswerContract(t, body, w)
	})
}

// trialSeeds are trials in the malformed-trial taxonomy of the seed
// corpus: a valid one, and an unknown flag, a key mismatch, an unknown
// benchmark and out-of-range reps, rep base, noise and timeout.
func trialSeeds() []dispatch.TrialRequest {
	valid := dispatch.TrialRequest{Key: "", Benchmark: "fop", Reps: 1, Noise: -1}
	seeds := []dispatch.TrialRequest{valid, trialRequest()}
	for _, mut := range []func(*dispatch.TrialRequest){
		func(q *dispatch.TrialRequest) { q.Args = []string{"-XX:+NoSuchFlag"} },
		func(q *dispatch.TrialRequest) { q.Key = "mismatch" },
		func(q *dispatch.TrialRequest) { q.Benchmark = "quake3" },
		func(q *dispatch.TrialRequest) { q.Reps = -3 },
		func(q *dispatch.TrialRequest) { q.RepBase = 900719925474 },
		func(q *dispatch.TrialRequest) { q.Noise = 1e308 },
		func(q *dispatch.TrialRequest) { q.TimeoutSeconds = -1 },
	} {
		q := valid
		mut(&q)
		seeds = append(seeds, q)
	}
	return seeds
}

// oneTrial is the head of a batch of one's body: its tag and trial count.
var oneTrial = func() []byte {
	body, err := dispatch.EncodeBatchRequest(batchOf(dispatch.TrialRequest{}))
	if err != nil {
		panic(err)
	}
	return body[:2]
}()

// trialBytes is tr's bytes inside a batch of one: the body past its head.
func trialBytes(t testing.TB, tr dispatch.TrialRequest) []byte {
	return encode(t, batchOf(tr))[len(oneTrial):]
}

// batchOfOne frames a trial payload as the one trial of a batch body: a
// JSON trial, the older protocol generation's, in that generation's JSON
// batch, and any other bytes behind the binary batch's head.
func batchOfOne(trial []byte) []byte {
	if len(trial) > 0 && trial[0] == '{' {
		body := append([]byte(`{"trials":[`), trial...)
		return append(body, "]}"...)
	}
	return append(bytes.Clone(oneTrial), trial...)
}

// FuzzDecodeTrialRequest holds the trial decoder's contract directly on
// a batch of one: DecodeBatchRequest either refuses it with a typed
// *RequestError or returns its trial, which Validate accepts or refuses
// with a *RequestError in turn; any trial it accepts re-encodes and
// decodes to the same value. A JSON trial, the older protocol
// generation's, is refused.
func FuzzDecodeTrialRequest(f *testing.F) {
	f.Add([]byte(`{"key":"","benchmark":"fop","reps":1,"noise":-1}`))
	f.Add([]byte(`{"key":"k","benchmark":"h2","args":["-Xmx4g"],"reps":3,"rep_base":7,"noise":0.01}`))
	f.Add([]byte(`{"reps":1}`))
	f.Add([]byte(`null`))
	for _, tr := range trialSeeds() {
		f.Add(trialBytes(f, tr))
	}
	f.Fuzz(func(t *testing.T, trial []byte) {
		b, err := dispatch.DecodeBatchRequest(batchOfOne(trial))
		if err == nil && len(trial) > 0 && trial[0] == '{' {
			t.Fatalf("accepted a JSON trial %q", trial)
		}
		for i := 0; err == nil && i < len(b.Trials); i++ {
			err = b.Trials[i].Validate()
		}
		if err != nil {
			var re *dispatch.RequestError
			if !errors.As(err, &re) {
				t.Fatalf("rejection is not a *RequestError: %v", err)
			}
			return
		}
		again, err := dispatch.DecodeBatchRequest(encode(t, b))
		if err != nil {
			t.Fatalf("re-encoded trial rejected: %v", err)
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("round trip changed the trial:\n%+v\n%+v", b, again)
		}
	})
}
