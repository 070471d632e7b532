package dispatch

import (
	"bytes"
	"strconv"
	"unicode/utf8"

	"repro/internal/jvmsim"
	"repro/internal/runner"
)

// A hand-rolled scanner for the batch-response wire shape. Reflection
// decoding of a 16-entry BatchResult was the single largest per-trial
// cost left in batched dispatch (the JSON is tiny; the field-name
// matching is not). The scanner is strictly opportunistic: it decodes
// exactly the documented shape, and bails out — causing the caller to
// fall back to the encoding/json path — on ANYTHING it does not expect:
// escape sequences, unknown fields, out-of-range numbers, trailing data.
// Correctness therefore never depends on this file; only speed does.
// FuzzFastBatchResultDecode holds the equivalence: whenever the fast
// path accepts, its result is byte-for-byte what encoding/json produces.

type jscan struct {
	b []byte
	i int
	// s, when set, is b as one string, and str returns substrings of it
	// instead of a copy per string: request decoding copies the body
	// once. Responses leave it empty, because sessions retain
	// Measurement.Key in their cache and must not pin a whole body.
	s string
}

func (p *jscan) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// lit consumes c (after whitespace); false means shape mismatch.
func (p *jscan) lit(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// peek reports whether the next non-space byte is c, without consuming.
func (p *jscan) peek(c byte) bool {
	p.ws()
	return p.i < len(p.b) && p.b[p.i] == c
}

// str consumes a JSON string with no escapes and no control bytes; a
// non-ASCII segment must be valid UTF-8 (encoding/json rewrites invalid
// sequences — the fast path must never disagree, so it bails instead).
// Anything needing unescaping bails to the slow path.
func (p *jscan) str() (string, bool) {
	if !p.lit('"') {
		return "", false
	}
	start := p.i
	ascii := true
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			if !ascii && !utf8.Valid(p.b[start:p.i]) {
				return "", false
			}
			var s string
			if p.s != "" {
				s = p.s[start:p.i]
			} else {
				s = string(p.b[start:p.i])
			}
			p.i++
			return s, true
		}
		if c == '\\' || c < 0x20 {
			return "", false
		}
		if c >= 0x80 {
			ascii = false
		}
		p.i++
	}
	return "", false
}

// numToken consumes the maximal number-shaped token and returns it only
// if it is a syntactically valid JSON number — strconv accepts spellings
// JSON forbids ("+3", ".5", "01"), and the fast path must reject exactly
// what encoding/json rejects.
func (p *jscan) numToken() ([]byte, bool) {
	p.ws()
	start := p.i
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			p.i++
		default:
			goto done
		}
	}
done:
	tok := p.b[start:p.i]
	if len(tok) == 0 || !validJSONNumber(tok) {
		return nil, false
	}
	return tok, true
}

// validJSONNumber checks s against the RFC 8259 number grammar.
func validJSONNumber(s []byte) bool {
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && s[i] >= '1' && s[i] <= '9':
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	default:
		return false
	}
	if i < len(s) && s[i] == '.' {
		i++
		if i >= len(s) || s[i] < '0' || s[i] > '9' {
			return false
		}
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i >= len(s) || s[i] < '0' || s[i] > '9' {
			return false
		}
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	}
	return i == len(s)
}

// num consumes a JSON number and parses it exactly as encoding/json
// would (both delegate float conversion to strconv.ParseFloat).
func (p *jscan) num() (float64, bool) {
	tok, ok := p.numToken()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

func (p *jscan) boolean() (bool, bool) {
	p.ws()
	if len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "true" {
		p.i += 4
		return true, true
	}
	if len(p.b)-p.i >= 5 && string(p.b[p.i:p.i+5]) == "false" {
		p.i += 5
		return false, true
	}
	return false, false
}

// floats consumes an array of numbers.
func (p *jscan) floats() ([]float64, bool) {
	if !p.lit('[') {
		return nil, false
	}
	if p.peek(']') {
		p.i++
		return []float64{}, true
	}
	var out []float64
	for {
		f, ok := p.num()
		if !ok {
			return nil, false
		}
		out = append(out, f)
		if p.lit(',') {
			continue
		}
		if p.lit(']') {
			return out, true
		}
		return nil, false
	}
}

// object walks {"key": value, ...}, calling field for each key. field
// must consume the value and report success; an unknown key bails out
// (the std path decides whether that is an error).
func (p *jscan) object(field func(key string) bool) bool {
	if !p.lit('{') {
		return false
	}
	if p.peek('}') {
		p.i++
		return true
	}
	for {
		key, ok := p.str()
		if !ok || !p.lit(':') {
			return false
		}
		if !field(key) {
			return false
		}
		if p.lit(',') {
			continue
		}
		return p.lit('}')
	}
}

// intField consumes an integer-spelled JSON number: encoding/json rejects
// fraction and exponent forms for Go int fields, so the fast path does too.
func (p *jscan) intField(dst *int) bool {
	tok, ok := p.numToken()
	if !ok {
		return false
	}
	n, err := strconv.Atoi(string(tok))
	if err != nil {
		return false
	}
	*dst = n
	return true
}

func (p *jscan) measurement(m *runner.Measurement) bool {
	return p.object(func(key string) bool {
		ok := false
		switch key {
		case "Key":
			m.Key, ok = p.str()
		case "Walls":
			m.Walls, ok = p.floats()
		case "Mean":
			m.Mean, ok = p.num()
		case "Pauses":
			m.Pauses, ok = p.floats()
		case "MeanPause":
			m.MeanPause, ok = p.num()
		case "Failed":
			m.Failed, ok = p.boolean()
		case "Failure":
			var s string
			if s, ok = p.str(); ok {
				m.Failure = jvmsim.FailureKind(s)
			}
		case "FailureMessage":
			m.FailureMessage, ok = p.str()
		case "CostSeconds":
			m.CostSeconds, ok = p.num()
		case "HedgeCostSeconds":
			m.HedgeCostSeconds, ok = p.num()
		case "FromCache":
			m.FromCache, ok = p.boolean()
		case "Attempts":
			ok = p.intField(&m.Attempts)
		case "Flakes":
			ok = p.intField(&m.Flakes)
		case "Transient":
			m.Transient, ok = p.boolean()
		}
		return ok
	})
}

func (p *jscan) trialResult() (*TrialResult, bool) {
	res := &TrialResult{}
	ok := p.object(func(key string) bool {
		switch key {
		case "node":
			var o bool
			res.Node, o = p.str()
			return o
		case "measurement":
			return p.measurement(&res.Measurement)
		}
		return false
	})
	return res, ok
}

func (p *jscan) errorEnvelope() (*ErrorEnvelope, bool) {
	env := &ErrorEnvelope{}
	ok := p.object(func(key string) bool {
		o := false
		switch key {
		case "error":
			env.Error, o = p.str()
		case "code":
			env.Code, o = p.str()
		case "retry_after_seconds":
			o = p.intField(&env.RetryAfterSeconds)
		}
		return o
	})
	return env, ok
}

// strs consumes an array of strings (each under the same no-escape
// contract as str) into one allocation sized by countStrs, so a wide arg
// list costs what a narrow one does.
func (p *jscan) strs() ([]string, bool) {
	if !p.lit('[') {
		return nil, false
	}
	if p.peek(']') {
		p.i++
		return []string{}, true
	}
	out := make([]string, 0, p.countStrs())
	for {
		s, ok := p.str()
		if !ok {
			return nil, false
		}
		out = append(out, s)
		if p.lit(',') {
			continue
		}
		if p.lit(']') {
			return out, true
		}
		return nil, false
	}
}

// countStrs estimates the length of the string array at the scan
// position, as strs's capacity: the quotes before the first ']', halved.
// Escape-free strings hold no quote, so the estimate is exact unless a
// string holds a ']', which undercounts and costs strs one regrowth. Only
// escapes, which strs rejects, overcount; MaxArgs bounds that case.
func (p *jscan) countStrs() int {
	rest := p.b[p.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return min(bytes.Count(rest, []byte{'"'})/2, MaxArgs)
}

// trialRequest decodes one stationary trial request. Drift fields
// ("phase", "shift") bail to the reflection path — they are rare and the
// nested shift object is not worth hand-scanning — as does any unknown
// field, which the strict std decoder then rejects properly.
func (p *jscan) trialRequest(tr *TrialRequest) bool {
	return p.object(func(key string) bool {
		ok := false
		switch key {
		case "key":
			tr.Key, ok = p.str()
		case "benchmark":
			tr.Benchmark, ok = p.str()
		case "args":
			tr.Args, ok = p.strs()
		case "rep_base":
			ok = p.intField(&tr.RepBase)
		case "reps":
			ok = p.intField(&tr.Reps)
		case "timeout_seconds":
			tr.TimeoutSeconds, ok = p.num()
		case "noise":
			tr.Noise, ok = p.num()
		}
		return ok
	})
}

// fastDecodeBatchRequest decodes the exact shape our controllers emit,
// the server-side twin of fastDecodeBatchResult. ok=false means "use the
// strict encoding/json path", never "bad request" — so unknown fields
// still fail closed through DisallowUnknownFields, with its error text.
// Every decoded string is a substring of one copy of data, so the result
// never aliases the caller's buffer and a ~200-arg trial costs no string
// allocations.
func fastDecodeBatchRequest(data []byte) (*BatchRequest, bool) {
	p := &jscan{b: data, s: string(data)}
	req := &BatchRequest{}
	shape := p.object(func(key string) bool {
		if key != "trials" {
			return false
		}
		if !p.lit('[') {
			return false
		}
		if p.peek(']') {
			p.i++
			req.Trials = []TrialRequest{}
			return true
		}
		for {
			var tr TrialRequest
			if !p.trialRequest(&tr) {
				return false
			}
			req.Trials = append(req.Trials, tr)
			if p.lit(',') {
				continue
			}
			return p.lit(']')
		}
	})
	if !shape {
		return nil, false
	}
	p.ws()
	if p.i != len(p.b) {
		return nil, false
	}
	return req, true
}

// fastDecodeBatchResult decodes the exact shape our evald emits. ok=false
// means "shape not recognized — use encoding/json", never "bad response".
func fastDecodeBatchResult(data []byte) (*BatchResult, bool) {
	p := &jscan{b: data}
	res := &BatchResult{}
	shape := p.object(func(key string) bool {
		switch key {
		case "node":
			var o bool
			res.Node, o = p.str()
			return o
		case "entries":
			if !p.lit('[') {
				return false
			}
			if p.peek(']') {
				p.i++
				res.Entries = []BatchEntry{}
				return true
			}
			for {
				var e BatchEntry
				entry := p.object(func(k string) bool {
					switch k {
					case "result":
						var o bool
						e.Result, o = p.trialResult()
						return o
					case "error":
						var o bool
						e.Error, o = p.errorEnvelope()
						return o
					}
					return false
				})
				if !entry {
					return false
				}
				res.Entries = append(res.Entries, e)
				if p.lit(',') {
					continue
				}
				return p.lit(']')
			}
		}
		return false
	})
	if !shape {
		return nil, false
	}
	p.ws()
	if p.i != len(p.b) {
		return nil, false
	}
	return res, true
}
