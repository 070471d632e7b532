package transfer

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// frameImage is the store framing written out by hand, apart from the
// checkpoint.Journal that implements it: the "ATTS" magic, the version as
// a little-endian uint32, then each payload behind its length and CRC32
// (IEEE), both little-endian uint32s. TestStoreFixture holds it to the
// bytes a build that framed the store itself wrote.
func frameImage(version uint32, payloads ...[]byte) []byte {
	img := binary.LittleEndian.AppendUint32([]byte("ATTS"), version)
	for _, p := range payloads {
		img = binary.LittleEndian.AppendUint32(img, uint32(len(p)))
		img = binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(p))
		img = append(img, p...)
	}
	return img
}

// v1Image renders records as a format v1 store: the v1 header, then
// JSON payloads in the shared framing. encoding/json is the reference v1
// encoder; this build only reads v1.
func v1Image(t testing.TB, recs ...storeRecord) []byte {
	t.Helper()
	var payloads [][]byte
	for i := range recs {
		p, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	return frameImage(1, payloads...)
}

// v2Image renders records as a format v2 store.
func v2Image(t testing.TB, recs ...storeRecord) []byte {
	t.Helper()
	var payloads [][]byte
	for i := range recs {
		p, err := appendRecord(nil, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	return frameImage(StoreVersion, payloads...)
}

// seedRecords is the record mix the fuzz seeds share: an entry, then a
// watermark past its Seq.
func seedRecords() []storeRecord {
	return []storeRecord{
		{Kind: "entry", Entry: &Entry{
			FP: Fingerprint{Version: 1, F: []float64{0.5}}, Workload: "h2", Searcher: "random",
			Objective: "throughput", Args: []string{"-XX:+UseG1GC"}, Score: 12, BaselineScore: 20,
		}},
		{Kind: "mark", NextSeq: 7},
	}
}

// sameEntry reports whether a and b are identical field by field: floats
// by bit pattern, lists including nil versus empty.
func sameEntry(a, b *Entry) bool {
	sameFloats := func(x, y []float64) bool {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	sameStrings := func(x, y []string) bool {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return a.Seq == b.Seq && a.FP.Version == b.FP.Version && sameFloats(a.FP.F, b.FP.F) &&
		a.Workload == b.Workload && a.Suite == b.Suite && a.Searcher == b.Searcher &&
		a.Objective == b.Objective && a.Seed == b.Seed && a.Reps == b.Reps && a.Trials == b.Trials &&
		sameStrings(a.Args, b.Args) &&
		sameFloats([]float64{a.BudgetSeconds, a.Score, a.BaselineScore},
			[]float64{b.BudgetSeconds, b.Score, b.BaselineScore})
}

// FuzzStoreOpen feeds arbitrary bytes to the store recovery path. The
// contract under test is the warm-start degradation guarantee: a bogus
// store file leaves the session at a cold start, never a panic. Open must
// either (a) accept the file — possibly after migrating a v1 file, moving a
// non-store aside or salvaging a torn tail — and come back usable (the file
// now reads as the current version, appends land, and a reopen replays the
// same entries plus the appended one), or (b) reject it with
// ErrFutureVersion, the one fail-closed case, leaving the file untouched.
func FuzzStoreOpen(f *testing.F) {
	for _, img := range [][]byte{v1Image(f, seedRecords()...), v2Image(f, seedRecords()...)} {
		badCRC := append([]byte(nil), img...)
		badCRC[len(badCRC)-1] ^= 0xFF
		f.Add(img)
		f.Add(img[:8])          // header only
		f.Add(img[:len(img)-5]) // torn tail
		f.Add(badCRC)
	}
	f.Add(frameImage(StoreVersion + 1))
	f.Add([]byte{})
	f.Add([]byte("garbage that is definitely not a store"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, storeFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, nil)
		if err != nil {
			if !errors.Is(err, ErrFutureVersion) {
				t.Fatalf("open error is not ErrFutureVersion: %v", err)
			}
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(after, data) {
				t.Fatal("future-version store was modified on disk")
			}
			return
		}
		before := st.Entries()
		head, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(head[4:8]); string(head[:4]) != "ATTS" || v != StoreVersion {
			t.Fatalf("accepted store opens with %q version %d, want ATTS version %d", head[:4], v, StoreVersion)
		}
		probe := &Entry{Workload: "probe", Args: []string{"-XX:+UseG1GC"}, Score: 1, BaselineScore: 2}
		if err := st.Append(probe); err != nil {
			t.Fatalf("append to accepted store: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		st2, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("reopen after salvage: %v", err)
		}
		defer st2.Close()
		ents := st2.Entries()
		if len(ents) != len(before)+1 || ents[len(ents)-1].Workload != "probe" {
			t.Fatalf("reopen replayed %d entries, want %d plus probe", len(ents), len(before)+1)
		}
		for i, e := range before {
			if !sameEntry(e, ents[i]) {
				t.Fatalf("entry %d changed across reopen:\n%+v\n%+v", i, e, ents[i])
			}
		}
	})
}

// FuzzEntryCodec holds the v2 entry codec to the v1 one it replaces, with
// encoding/json as the reference: v2 accepts exactly the entries v1
// accepted (non-finite floats stay rejected), and an accepted entry reads
// back from v2 exactly as it read back from v1 — the same float bits, nil
// lists kept apart from empty ones, and invalid UTF-8 mapped the way
// encoding/json maps it.
func FuzzEntryCodec(f *testing.F) {
	bits := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f64 := math.Float64bits
	f.Add(int64(3), int64(42), 1, 3, 150, bits(0.25, 0.5, 1), "h2", "dacapo", "hierarchical", "throughput",
		"-XX:+UseG1GC\n-XX:MaxGCPauseMillis=50", false, f64(1200), f64(12.5), f64(20))
	f.Add(int64(-1), int64(-9), -2, 0, 0, []byte(nil), "bad\xffutf8\xed\xa0\x80", "", " <&>", "\x00",
		"", true, f64(math.Copysign(0, -1)), f64(5e-324), f64(math.MaxFloat64))
	f.Add(int64(0), int64(0), 0, 0, 0, bits(1), "", "", "", "", "", false, f64(0), f64(math.NaN()), f64(1))
	f.Add(int64(0), int64(0), 0, 0, 0, bits(math.Inf(-1)), "", "", "", "", "a", false, f64(0), f64(1), f64(1))

	f.Fuzz(func(t *testing.T, seq, seed int64, ver, reps, trials int, fp []byte,
		workload, suite, searcher, objective, args string, nilArgs bool, budget, score, baseline uint64) {
		e := &Entry{
			Seq: seq, FP: Fingerprint{Version: ver}, Workload: workload, Suite: suite,
			Searcher: searcher, Objective: objective, Seed: seed, Reps: reps, Trials: trials,
			BudgetSeconds: math.Float64frombits(budget),
			Score:         math.Float64frombits(score), BaselineScore: math.Float64frombits(baseline),
		}
		if len(fp) > 0 {
			e.FP.F = make([]float64, len(fp)/8)
			for i := range e.FP.F {
				e.FP.F[i] = math.Float64frombits(binary.LittleEndian.Uint64(fp[8*i:]))
			}
		}
		switch {
		case nilArgs:
		case args == "":
			e.Args = []string{}
		default:
			e.Args = strings.Split(args, "\n")
		}

		p1, err1 := json.Marshal(&storeRecord{Kind: "entry", Entry: e})
		p2, err2 := appendEntry(nil, e)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("acceptance differs: v1 %v, v2 %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		r1, err := decodeRecordV1(p1)
		if err != nil {
			t.Fatalf("v1 decode: %v", err)
		}
		r2, err := decodeRecord(p2, string(p2))
		if err != nil {
			t.Fatalf("v2 decode: %v", err)
		}
		if !sameEntry(r1.Entry, r2.Entry) {
			t.Fatalf("round trips differ:\nv1 %+v\nv2 %+v", r1.Entry, r2.Entry)
		}
		// Strictness: a payload cut short or carrying a trailing byte is corrupt.
		for _, bad := range [][]byte{p2[:len(p2)-1], append(p2[:len(p2):len(p2)], 0)} {
			if _, err := decodeRecord(bad, string(bad)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("malformed payload (%d of %d bytes) decoded: %v", len(bad), len(p2), err)
			}
		}
	})
}

// FuzzGroupKey holds the store's binary group key to Key, which it stands
// in for: for any two values, one-feature fingerprints have equal group
// keys exactly when their Keys are equal, and so do the two-feature
// fingerprints that hold the values in either order. For a nonzero finite
// value, decimal9's digits and exponent must be those strconv prints with
// the 'e' format at 8 decimals. A non-finite value never reaches the store's
// index, since Append and the decoder reject it, but the key still takes
// it without a panic.
//
// The seeds in code sweep what the fast path decides near: one ulp either
// side of a 9-digit tie and of a power of ten, at every exponent the fast
// path serves and a few past it, plus random bit patterns.
func FuzzGroupKey(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for exp := -17; exp <= 32; exp++ {
		tie := (float64(1e8+rng.Int63n(9e8)) + 0.5) * math.Pow(10, float64(exp-8))
		pow := math.Pow(10, float64(exp))
		f.Add(math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
		f.Add(math.Nextafter(pow, 0), math.Nextafter(pow, math.Inf(1)))
	}
	for range 20 {
		f.Add(math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()))
	}

	f.Fuzz(func(t *testing.T, a, b float64) {
		groupKey := func(fp Fingerprint) string { return string(fp.appendGroupKey(nil)) }
		one := func(v float64) Fingerprint { return Fingerprint{Version: 1, F: []float64{v}} }
		ab := Fingerprint{Version: 1, F: []float64{a, b}}
		ba := Fingerprint{Version: 1, F: []float64{b, a}}
		for _, p := range [][2]Fingerprint{{one(a), one(b)}, {ab, ba}} {
			if (groupKey(p[0]) == groupKey(p[1])) != (p[0].Key() == p[1].Key()) {
				t.Fatalf("group keys of %q and %q disagree with their Keys", p[0].Key(), p[1].Key())
			}
		}
		for _, v := range []float64{a, b} {
			v = math.Abs(v)
			if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			s := strconv.FormatFloat(v, 'e', 8, 64)
			mant, exp, _ := strings.Cut(s, "e")
			wantM, err1 := strconv.ParseUint(strings.Replace(mant, ".", "", 1), 10, 64)
			wantE, err2 := strconv.Atoi(exp)
			if err1 != nil || err2 != nil {
				t.Fatalf("cannot parse strconv's %q", s)
			}
			if m, e := decimal9(v); m != wantM || e != wantE {
				t.Fatalf("decimal9(%v) = %d, %d; strconv prints %s", v, m, e, s)
			}
		}
	})
}
