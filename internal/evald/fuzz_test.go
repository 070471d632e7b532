package evald

import (
	"bytes"
	"encoding/json"
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
// bounds); whole-body shapes are FuzzEvaluateBatchEnvelope's.
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

// batchOfOne frames a trial payload as the one trial of a batch body.
func batchOfOne(trial []byte) []byte {
	body := append([]byte(`{"trials":[`), trial...)
	return append(body, "]}"...)
}

// FuzzDecodeTrialRequest holds the trial decoder's contract directly on
// a batch of one: DecodeBatchRequest either refuses it with a typed
// *RequestError or returns its trial, which Validate accepts or refuses
// with a *RequestError in turn; any trial it accepts re-encodes and
// decodes to the same value.
func FuzzDecodeTrialRequest(f *testing.F) {
	f.Add([]byte(`{"key":"","benchmark":"fop","reps":1,"noise":-1}`))
	f.Add([]byte(`{"key":"k","benchmark":"h2","args":["-Xmx4g"],"reps":3,"rep_base":7,"noise":0.01}`))
	f.Add([]byte(`{"reps":1}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, trial []byte) {
		b, err := dispatch.DecodeBatchRequest(batchOfOne(trial))
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
		out, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("accepted trial fails to re-encode: %v", err)
		}
		again, err := dispatch.DecodeBatchRequest(out)
		if err != nil {
			t.Fatalf("re-encoded trial rejected: %v (%s)", err, out)
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("round trip changed the trial:\n%+v\n%+v", b, again)
		}
	})
}
