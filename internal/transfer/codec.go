package transfer

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// The store file format. A store is a checkpoint.Journal of kind "ATTS":
// an 8-byte header — the magic then the format version as a little-endian
// uint32 — followed by records framed by their length and CRC32. Every
// version shares the header and the framing; only the payload encoding
// changed.
//
// Version 2 payloads are binary, so a warm start costs one read and one
// linear scan of the file:
//
//	mark:  0x02, uvarint next_seq
//	entry: 0x01, varint seq, varint fp.v, floats fp.f,
//	       str workload, str suite, str searcher, str objective,
//	       varint seed, varint reps, varint trials, f64 budget_seconds,
//	       strs args, f64 score, f64 baseline_score
//
// f64 is the IEEE-754 bit pattern as a little-endian uint64; str is a
// uvarint byte length then the bytes; floats and strs are a uvarint count
// plus one (zero encodes a nil list) then the elements. The decoder is
// strict: a short field, a length past the payload's end, a non-finite
// float, an unknown kind or a trailing byte makes the record corrupt.
//
// Version 1 payloads were JSON-encoded storeRecords. A version 1 file is
// read once and rewritten as version 2 (migrateV1).
const (
	kindEntry byte = 1
	kindMark  byte = 2
)

// stringView returns b's bytes as a string without copying them. The
// caller must never write to b again. Replay decodes every string of a
// store as a substring of one view of the file image, which makes the
// strings cost one allocation per file instead of one per argument.
func stringView(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// appendMark appends the payload of a watermark record.
func appendMark(dst []byte, nextSeq int64) []byte {
	return binary.AppendUvarint(append(dst, kindMark), uint64(nextSeq))
}

// appendEntry appends the payload of an entry record. It fails exactly
// where format v1's JSON encoding failed: on a NaN or infinite float.
// Strings are mapped the way a JSON round trip maps them (jsonString), so
// an entry reads back from v2 exactly as it read back from v1.
func appendEntry(dst []byte, e *Entry) ([]byte, error) {
	for _, f := range [...]float64{e.BudgetSeconds, e.Score, e.BaselineScore} {
		if !finite(f) {
			return dst, fmt.Errorf("unsupported value %v", f)
		}
	}
	for _, f := range e.FP.F {
		if !finite(f) {
			return dst, fmt.Errorf("unsupported fingerprint value %v", f)
		}
	}
	dst = append(dst, kindEntry)
	dst = binary.AppendVarint(dst, e.Seq)
	dst = binary.AppendVarint(dst, int64(e.FP.Version))
	dst = appendCount(dst, len(e.FP.F), e.FP.F == nil)
	for _, f := range e.FP.F {
		dst = appendFloat(dst, f)
	}
	for _, s := range [...]string{e.Workload, e.Suite, e.Searcher, e.Objective} {
		dst = appendString(dst, s)
	}
	dst = binary.AppendVarint(dst, e.Seed)
	dst = binary.AppendVarint(dst, int64(e.Reps))
	dst = binary.AppendVarint(dst, int64(e.Trials))
	dst = appendFloat(dst, e.BudgetSeconds)
	dst = appendCount(dst, len(e.Args), e.Args == nil)
	for _, a := range e.Args {
		dst = appendString(dst, a)
	}
	dst = appendFloat(dst, e.Score)
	return appendFloat(dst, e.BaselineScore), nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// appendCount encodes a list length as count+1, keeping nil (0) apart from
// empty (1) as a JSON null is kept apart from [].
func appendCount(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

func appendString(dst []byte, s string) []byte {
	s = jsonString(s)
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// jsonString maps s the way an encoding/json round trip maps it: each byte
// that does not start a valid UTF-8 sequence becomes U+FFFD.
func jsonString(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(utf8.RuneError)
		} else {
			b.WriteString(s[i : i+size])
		}
		i += size
	}
	return b.String()
}

// decoder reads one v2 payload. b and s hold the same bytes; decoded
// strings are substrings of s. The first malformed field clears ok and
// every later read returns zero values.
type decoder struct {
	b   []byte
	s   string
	off int
	ok  bool
}

func (d *decoder) fail() { d.ok, d.off = false, len(d.b) }

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) float() float64 {
	if len(d.b)-d.off < 8 {
		d.fail()
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	if !finite(f) {
		d.fail()
		return 0
	}
	return f
}

// count reads a list length (see appendCount); each element takes at least
// min bytes, which bounds the allocation by the payload size. ok is false
// for a nil list.
func (d *decoder) count(min int) (n int, ok bool) {
	c := d.uvarint()
	if c == 0 {
		return 0, false
	}
	if c-1 > uint64(len(d.b)-d.off)/uint64(min) {
		d.fail()
		return 0, false
	}
	return int(c - 1), true
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return ""
	}
	s := d.s[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

// decodeRecord parses one v2 payload into a storeRecord, failing closed on
// anything malformed.
func decodeRecord(b []byte, s string) (storeRecord, error) {
	if len(b) == 0 {
		return storeRecord{}, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	d := decoder{b: b, s: s, off: 1, ok: true}
	var rec storeRecord
	switch b[0] {
	case kindMark:
		rec.Kind = "mark"
		next := d.uvarint()
		if next > math.MaxInt64 {
			d.fail()
		}
		rec.NextSeq = int64(next)
	case kindEntry:
		rec.Kind = "entry"
		e := &Entry{Seq: d.varint()}
		e.FP.Version = d.int()
		if n, ok := d.count(8); ok {
			e.FP.F = make([]float64, n)
			for i := range e.FP.F {
				e.FP.F[i] = d.float()
			}
		}
		e.Workload, e.Suite, e.Searcher, e.Objective = d.str(), d.str(), d.str(), d.str()
		e.Seed = d.varint()
		e.Reps = d.int()
		e.Trials = d.int()
		e.BudgetSeconds = d.float()
		if n, ok := d.count(1); ok {
			e.Args = make([]string, n)
			for i := range e.Args {
				e.Args[i] = d.str()
			}
		}
		e.Score = d.float()
		e.BaselineScore = d.float()
		rec.Entry = e
	default:
		return storeRecord{}, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, b[0])
	}
	if !d.ok {
		return storeRecord{}, fmt.Errorf("%w: malformed %s record", ErrCorrupt, rec.Kind)
	}
	if d.off != len(b) {
		return storeRecord{}, fmt.Errorf("%w: %d trailing bytes in %s record", ErrCorrupt, len(b)-d.off, rec.Kind)
	}
	return rec, nil
}

// storeRecord is one decoded record. Kind "entry" carries an Entry; kind
// "mark" is the compaction watermark recording the next sequence number,
// so sequence numbers stay unique across compactions that drop the
// highest-numbered entries. It is also the JSON payload of format v1.
type storeRecord struct {
	Kind    string `json:"kind"`
	Entry   *Entry `json:"entry,omitempty"`
	NextSeq int64  `json:"next_seq,omitempty"`
}

// decodeRecordV1 parses one format v1 (JSON) payload, failing closed on
// anything malformed. DisallowUnknownFields is deliberately absent: an
// older build reading a same-version record with extra fields kept the
// fields it knew.
func decodeRecordV1(payload []byte) (*storeRecord, error) {
	var rec storeRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("%w: undecodable record: %v", ErrCorrupt, err)
	}
	switch rec.Kind {
	case "entry":
		if rec.Entry == nil {
			return nil, fmt.Errorf("%w: entry record without entry", ErrCorrupt)
		}
	case "mark":
		if rec.NextSeq < 0 {
			return nil, fmt.Errorf("%w: mark with negative next_seq", ErrCorrupt)
		}
	default:
		return nil, fmt.Errorf("%w: unknown record kind %q", ErrCorrupt, rec.Kind)
	}
	return &rec, nil
}

// appendRecord appends rec's v2 payload.
func appendRecord(dst []byte, rec *storeRecord) ([]byte, error) {
	if rec.Kind == "mark" {
		return appendMark(dst, rec.NextSeq), nil
	}
	return appendEntry(dst, rec.Entry)
}

// migrateV1 re-encodes format v1 payloads as v2, record for record: every
// entry keeps its position and Seq, and every watermark stays where it was.
// A payload that does not decode ends the valid prefix exactly as replay
// would cut it there, and salvaged reports that one did.
func migrateV1(v1 [][]byte) (v2 [][]byte, salvaged bool) {
	v2 = make([][]byte, 0, len(v1))
	for _, p := range v1 {
		rec, err := decodeRecordV1(p)
		if err != nil {
			return v2, true
		}
		q, err := appendRecord(nil, rec)
		if err != nil {
			return v2, true
		}
		v2 = append(v2, q)
	}
	return v2, false
}
