package transfer

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"repro/internal/bincode"
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
// The fields are internal/bincode's, which checkpoints share: f64 is the
// IEEE-754 bit pattern as a little-endian uint64; str is a uvarint byte
// length then the bytes; floats and strs are a uvarint count plus one
// (zero encodes a nil list) then the elements. The decoder is strict: a
// short field, a length past the payload's end, a non-finite float, an
// unknown kind or a trailing byte makes the record corrupt.
//
// Version 1 payloads were JSON-encoded storeRecords. A version 1 file is
// read once and rewritten as version 2 (migrateV1).
const (
	kindEntry byte = 1
	kindMark  byte = 2
)

// appendMark appends the payload of a watermark record.
func appendMark(dst []byte, nextSeq int64) []byte {
	return binary.AppendUvarint(append(dst, kindMark), uint64(nextSeq))
}

// appendEntry appends the payload of an entry record. It fails exactly
// where format v1's JSON encoding failed: on a NaN or infinite float.
// Strings are mapped the way a JSON round trip maps them (jsonString), so
// an entry reads back from v2 exactly as it read back from v1.
func appendEntry(dst []byte, e *Entry) ([]byte, error) {
	enc := bincode.Encoder{B: append(dst, kindEntry)}
	enc.Varint(e.Seq)
	enc.Varint(int64(e.FP.Version))
	enc.Floats(e.FP.F)
	for _, s := range [...]string{e.Workload, e.Suite, e.Searcher, e.Objective} {
		enc.Str(jsonString(s))
	}
	enc.Varint(e.Seed)
	enc.Varint(int64(e.Reps))
	enc.Varint(int64(e.Trials))
	enc.Float(e.BudgetSeconds)
	enc.Count(len(e.Args), e.Args == nil)
	for _, a := range e.Args {
		enc.Str(jsonString(a))
	}
	enc.Float(e.Score)
	enc.Float(e.BaselineScore)
	if enc.Err != nil {
		return dst, enc.Err
	}
	return enc.B, nil
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

// decodeRecord parses one v2 payload into a storeRecord, failing closed on
// anything malformed. s is b's bytes as a string, which the entry's
// strings share.
func decodeRecord(b []byte, s string) (storeRecord, error) {
	if len(b) == 0 {
		return storeRecord{}, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	d := bincode.NewDecoder(b[1:], s[1:])
	var rec storeRecord
	switch b[0] {
	case kindMark:
		rec.Kind = "mark"
		next := d.Uvarint()
		if next > math.MaxInt64 {
			d.Fail()
		}
		rec.NextSeq = int64(next)
	case kindEntry:
		rec.Kind = "entry"
		e := new(Entry)
		e.Seq = d.Varint()
		e.FP.Version = d.Int()
		if n, ok := d.Count(8); ok {
			e.FP.F = make([]float64, n)
			for i := range e.FP.F {
				e.FP.F[i] = d.Float()
			}
		}
		e.Workload, e.Suite, e.Searcher, e.Objective = d.Str(), d.Str(), d.Str(), d.Str()
		e.Seed = d.Varint()
		e.Reps = d.Int()
		e.Trials = d.Int()
		e.BudgetSeconds = d.Float()
		if n, ok := d.Count(1); ok {
			e.Args = make([]string, n)
			for i := range e.Args {
				e.Args[i] = d.Str()
			}
		}
		e.Score = d.Float()
		e.BaselineScore = d.Float()
		rec.Entry = e
	default:
		return storeRecord{}, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, b[0])
	}
	if !d.OK() {
		return storeRecord{}, fmt.Errorf("%w: malformed %s record", ErrCorrupt, rec.Kind)
	}
	if !d.Done() {
		return storeRecord{}, fmt.Errorf("%w: %d trailing bytes in %s record", ErrCorrupt, len(d.Rest()), rec.Kind)
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
