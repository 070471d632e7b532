package dispatch

import (
	"fmt"
	"strings"

	"repro/internal/bincode"
	"repro/internal/jvmsim"
	"repro/internal/runner"
)

// The evaluate-batch wire is binary, in the fields of internal/bincode
// that checkpoint records and the transfer store share. A request body
// is
//
//	request: 0xb1, count trials, then per trial:
//	         byte flags, str key, str benchmark, strs args,
//	         varint rep_base, varint reps, f64 timeout_seconds, f64 noise,
//	         varint phase, [f64 alloc, f64 live, f64 base, f64 short]
//
// where flag bit 1 says the trial's phase shift (jvmsim.PhaseShift's four
// factors) follows. An answer body is
//
//	answer:  0xb2, str node, count entries, then per entry:
//	         byte flags, [str node, measurement],
//	         [str error, str code, varint retry_after_seconds]
//
// where flag bits 1 and 2 say the entry's result and its error envelope
// follow; an entry with neither is empty. A measurement is
// runner.EncodeMeasurement's under its trial's key, so a key crosses the
// wire once per trial, in the request.
//
// The tag that opens a body is a UTF-8 continuation byte, which no JSON
// text, nor any other text, starts with. The decoders are strict: a body
// with another first byte, a short field, a count past the remaining
// bytes or past a protocol bound (MaxBatchTrials trials, MaxArgs args,
// one entry per trial), unknown flag bits, a non-finite float or trailing
// bytes is refused whole, with CodeBadPayload. A body that opens with '{'
// is JSON, the wire of the protocol generation before this one, and its
// refusal says so. There is no fallback and no negotiation: controllers
// and nodes are upgraded together.
const (
	requestTag byte = 0xb1
	answerTag  byte = 0xb2
)

// Flag bits of a trial and of an answer entry.
const (
	trialShift  byte = 1
	entryResult byte = 1
	entryError  byte = 2
)

// minTrialBytes is the fewest bytes a trial takes: empty strings and
// lists, one-byte varints and two floats. It bounds what a trial count
// can make the decoder allocate.
const minTrialBytes = 23

// EncodeBatchRequest renders req as a request body. A non-finite float
// fails it.
func EncodeBatchRequest(req *BatchRequest) ([]byte, error) {
	size := 8
	for i := range req.Trials {
		t := &req.Trials[i]
		size += 64 + len(t.Key) + len(t.Benchmark)
		for _, a := range t.Args {
			size += len(a) + 2
		}
	}
	e := bincode.Encoder{B: make([]byte, 0, size)}
	e.Byte(requestTag)
	e.Count(len(req.Trials), req.Trials == nil)
	for i := range req.Trials {
		t := &req.Trials[i]
		var flags byte
		if t.Shift != nil {
			flags = trialShift
		}
		e.Byte(flags)
		e.Str(t.Key)
		e.Str(t.Benchmark)
		e.Strs(t.Args)
		e.Varint(int64(t.RepBase))
		e.Varint(int64(t.Reps))
		e.Float(t.TimeoutSeconds)
		e.Float(t.Noise)
		e.Varint(int64(t.Phase))
		if s := t.Shift; s != nil {
			for _, f := range [...]float64{s.AllocFactor, s.LiveSetFactor, s.BaseFactor, s.ShortLivedFactor} {
				e.Float(f)
			}
		}
	}
	if e.Err != nil {
		return nil, fmt.Errorf("dispatch: encode batch request: %w", e.Err)
	}
	return e.B, nil
}

// DecodeBatchRequest parses and validates a request body; a refusal is a
// *RequestError. The trials themselves are validated by the serving node,
// so an accepted batch may still hold trials it refuses one by one. Every
// decoded string is a substring of one copy of data, so nothing decoded
// aliases the caller's buffer and an arg list costs one slice.
func DecodeBatchRequest(data []byte) (*BatchRequest, error) {
	if err := checkTag(data, requestTag, "request"); err != nil {
		return nil, err
	}
	d := bincode.NewDecoder(data[1:], string(data[1:]))
	b := &BatchRequest{}
	if n, ok := d.Count(minTrialBytes); ok {
		if err := checkBatchSize(n); err != nil {
			return nil, err
		}
		b.Trials = make([]TrialRequest, n)
	}
	for i := range b.Trials {
		t := &b.Trials[i]
		flags := d.Byte()
		if flags&^trialShift != 0 {
			d.Fail()
		}
		t.Key, t.Benchmark = d.Str(), d.Str()
		if n, ok := d.Count(1); ok {
			if n > MaxArgs {
				return nil, reject(CodeBadPayload, "dispatch: %d args exceed limit %d", n, MaxArgs)
			}
			t.Args = make([]string, n)
			for j := range t.Args {
				t.Args[j] = d.Str()
			}
		}
		t.RepBase, t.Reps = d.Int(), d.Int()
		t.TimeoutSeconds, t.Noise = d.Float(), d.Float()
		t.Phase = d.Int()
		if flags&trialShift != 0 {
			t.Shift = &jvmsim.PhaseShift{AllocFactor: d.Float(), LiveSetFactor: d.Float(),
				BaseFactor: d.Float(), ShortLivedFactor: d.Float()}
		}
	}
	if err := checkEnd(&d, "request"); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// EncodeBatchResult renders res, the answer to req, as an answer body. A
// non-finite float fails it, as does an entry count other than req's
// trial count.
func EncodeBatchResult(res *BatchResult, req *BatchRequest) ([]byte, error) {
	if len(res.Entries) != len(req.Trials) {
		return nil, fmt.Errorf("dispatch: %d entries answer %d trials", len(res.Entries), len(req.Trials))
	}
	e := bincode.Encoder{B: make([]byte, 0, 16+len(res.Node)+len(res.Entries)*(96+len(res.Node)))}
	e.Byte(answerTag)
	e.Str(res.Node)
	e.Count(len(res.Entries), res.Entries == nil)
	for i := range res.Entries {
		en := &res.Entries[i]
		var flags byte
		if en.Result != nil {
			flags |= entryResult
		}
		if en.Error != nil {
			flags |= entryError
		}
		e.Byte(flags)
		if r := en.Result; r != nil {
			e.Str(r.Node)
			runner.EncodeMeasurement(&e, &r.Measurement, req.Trials[i].Key)
		}
		if env := en.Error; env != nil {
			e.Str(env.Error)
			e.Str(env.Code)
			e.Varint(int64(env.RetryAfterSeconds))
		}
	}
	if e.Err != nil {
		return nil, fmt.Errorf("dispatch: encode batch answer: %w", e.Err)
	}
	return e.B, nil
}

// DecodeBatchResult parses an answer body to req: exactly one entry per
// trial, or a refusal worded as a node words a malformed request (a
// *RequestError), which the Remote reports as a fault of the node that
// answered. Nothing decoded shares data's memory, because sessions keep
// measurements in their cache and must not pin an answer body: a
// measurement's key is its trial's own string, the node name is one copy
// for the whole answer, and every other string is a copy of its own.
func DecodeBatchResult(data []byte, req *BatchRequest) (*BatchResult, error) {
	if err := checkTag(data, answerTag, "answer"); err != nil {
		return nil, err
	}
	d := bincode.NewDecoder(data[1:], bincode.StringView(data[1:]))
	res := &BatchResult{Node: strings.Clone(d.Str())}
	n, ok := d.Count(1)
	if d.OK() && n != len(req.Trials) {
		return nil, reject(CodeBadPayload, "dispatch: decode batch answer: %d entries for %d trials", n, len(req.Trials))
	}
	if ok {
		res.Entries = make([]BatchEntry, n)
	}
	for i := range res.Entries {
		en := &res.Entries[i]
		flags := d.Byte()
		if flags&^(entryResult|entryError) != 0 {
			d.Fail()
		}
		if flags&entryResult != 0 {
			key := req.Trials[i].Key
			r := &TrialResult{Node: d.Str()}
			r.Measurement = runner.DecodeMeasurement(&d, key)
			if r.Node == res.Node {
				r.Node = res.Node
			} else {
				r.Node = strings.Clone(r.Node)
			}
			m := &r.Measurement
			if m.Key == key {
				m.Key = key
			} else {
				m.Key = strings.Clone(m.Key)
			}
			m.Failure = jvmsim.FailureKind(strings.Clone(string(m.Failure)))
			m.FailureMessage = strings.Clone(m.FailureMessage)
			en.Result = r
		}
		if flags&entryError != 0 {
			en.Error = &ErrorEnvelope{Error: strings.Clone(d.Str()), Code: strings.Clone(d.Str()),
				RetryAfterSeconds: d.Int()}
		}
	}
	if err := checkEnd(&d, "answer"); err != nil {
		return nil, err
	}
	return res, nil
}

// checkTag refuses a body that does not open with tag, naming the older
// protocol generation when the body is JSON.
func checkTag(data []byte, tag byte, what string) error {
	switch {
	case len(data) > 0 && data[0] == tag:
		return nil
	case len(data) > 0 && data[0] == '{':
		return reject(CodeBadPayload, "dispatch: decode batch %s: a JSON body is an older protocol generation's; "+
			"this build speaks only the binary wire (upgrade controllers and nodes together)", what)
	}
	return reject(CodeBadPayload, "dispatch: decode batch %s: body does not open with tag %#x", what, tag)
}

// checkEnd refuses a body the decoder failed on or did not read to its
// end.
func checkEnd(d *bincode.Decoder, what string) error {
	switch {
	case !d.OK():
		return reject(CodeBadPayload, "dispatch: decode batch %s: malformed body", what)
	case !d.Done():
		return reject(CodeBadPayload, "dispatch: decode batch %s: %d trailing bytes", what, len(d.Rest()))
	}
	return nil
}
