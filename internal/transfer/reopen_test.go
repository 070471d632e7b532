package transfer

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

// reopenProbe is the entry the reopen tests append through a store before
// they close it. Its suite is not valid UTF-8, which a read of the file
// gives back mapped, so a reopen that kept the entry as it was handed in,
// rather than decoding it from the file, would disagree with a cold open.
func reopenProbe() *Entry {
	return &Entry{
		FP: Fingerprint{Version: 1, F: []float64{0.25, 0.75}}, Workload: "probe", Suite: "bad\xffsuite",
		Searcher: "random", Objective: "throughput", Args: []string{"-XX:+UseG1GC"}, Score: 9, BaselineScore: 20,
	}
}

// reopenFingerprints are the lookups the reopen tests compare Nearest on:
// the probe's group, the seed records' group, and a workload's own.
func reopenFingerprints() []Fingerprint {
	return []Fingerprint{
		{Version: 1, F: []float64{0.25, 0.75}},
		{Version: 1, F: []float64{0.5}},
		FingerprintOf(workload.All()[0]),
	}
}

// storeCounters reads the open-time counters a resident reopen and a cold
// open of the same bytes must agree on.
func storeCounters(tel *telemetry.Registry) [3]uint64 {
	return [3]uint64{
		tel.Counter("transfer_store_salvaged_total").Value(),
		tel.Counter("transfer_store_migrated_total").Value(),
		tel.Counter("transfer_store_corrupt_total").Value(),
	}
}

// matchCold opens the store in dir, whose store the caller closed last in
// this process so that it is the resident one, and a copy of its file in
// a fresh directory, which no resident store stands for. The two must
// agree on whether the open fails and on every counter it moves, on Len,
// Entries, Nearest for reopenFingerprints, the size past which the next
// Append compacts, the Seq the next Append gets, and the file's bytes
// after that Append. The cold store closes first, so dir's is resident
// again afterwards.
func matchCold(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, storeFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cdir := t.TempDir()
	cpath := filepath.Join(cdir, storeFile)
	if err := os.WriteFile(cpath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rtel, ctel := telemetry.New(), telemetry.New()
	r, rerr := Open(dir, rtel)
	c, cerr := Open(cdir, ctel)
	if (rerr == nil) != (cerr == nil) || errors.Is(rerr, ErrFutureVersion) != errors.Is(cerr, ErrFutureVersion) {
		t.Fatalf("resident reopen: %v; cold open: %v", rerr, cerr)
	}
	if rc, cc := storeCounters(rtel), storeCounters(ctel); rc != cc {
		t.Fatalf("salvaged, migrated, corrupt: resident reopen %v, cold open %v", rc, cc)
	}
	sameFiles := func(when string) {
		t.Helper()
		rb, err1 := os.ReadFile(path)
		cb, err2 := os.ReadFile(cpath)
		if err1 != nil || err2 != nil || !bytes.Equal(rb, cb) {
			t.Fatalf("%s: files differ (%v, %v):\nresident %q\ncold     %q", when, err1, err2, rb, cb)
		}
	}
	sameFiles("after the open")
	if rerr != nil {
		return
	}
	same := func(when string) {
		t.Helper()
		if r.Len() != c.Len() {
			t.Fatalf("%s: Len %d, cold %d", when, r.Len(), c.Len())
		}
		if re, ce := r.Entries(), c.Entries(); !reflect.DeepEqual(re, ce) {
			t.Fatalf("%s: entries differ:\nresident %+v\ncold     %+v", when, re, ce)
		}
		for _, fp := range reopenFingerprints() {
			if rn, cn := r.Nearest(fp, 5), c.Nearest(fp, 5); !reflect.DeepEqual(rn, cn) {
				t.Fatalf("%s: Nearest(%v) differs:\nresident %+v\ncold     %+v", when, fp, rn, cn)
			}
		}
		if rs, cs := [2]int64{r.s.lastCmp, r.s.j.Size()}, [2]int64{c.s.lastCmp, c.s.j.Size()}; rs != cs {
			t.Fatalf("%s: compaction size and file size %v, cold %v", when, rs, cs)
		}
	}
	same("after the open")
	if err1, err2 := r.Append(reopenProbe()), c.Append(reopenProbe()); err1 != nil || err2 != nil {
		t.Fatalf("append: %v, %v", err1, err2)
	}
	same("after an append")
	sameFiles("after an append")
	c.Close()
	r.Close()
}

// openAppendClose opens the store in dir, appends the probe and closes it,
// which leaves dir's store the resident one.
func openAppendClose(t *testing.T, dir string) {
	t.Helper()
	st, err := Open(dir, nil)
	if err != nil {
		if errors.Is(err, ErrFutureVersion) {
			return
		}
		t.Fatal(err)
	}
	if err := st.Append(reopenProbe()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// reopenBase is the store the differential test starts from: entries in
// three groups, a better and a worse score in one of them and a tie in
// another, and a watermark between them.
func reopenBase(t *testing.T) (img []byte, ends []int) {
	t.Helper()
	names := workload.Names()
	recs := []storeRecord{
		{Kind: "entry", Entry: testEntry(t, names[0], 14, "-XX:+UseG1GC")},
		{Kind: "entry", Entry: testEntry(t, names[1], 12, "-XX:+UseSerialGC")},
		{Kind: "entry", Entry: testEntry(t, names[0], 11, "-XX:+UseParallelGC")},
		{Kind: "mark", NextSeq: 9},
		{Kind: "entry", Entry: testEntry(t, names[2], 10)},
		{Kind: "entry", Entry: testEntry(t, names[1], 12, "-Xmx2g")},
	}
	var payloads [][]byte
	end := 8
	for i, seq := range []int64{0, 1, 2, 0, 9, 10} {
		if recs[i].Entry != nil {
			recs[i].Entry.Seq = seq
		}
		p, err := appendRecord(nil, &recs[i])
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
		end += 8 + len(p)
		ends = append(ends, end)
	}
	img = frameImage(StoreVersion, payloads...)
	return img, ends
}

// TestStoreResidentReopenMatchesCold holds the resident reopen to a cold
// open of the same bytes (see matchCold), after the store was opened,
// appended to and closed, and its file then replaced: kept as the store
// left it, truncated back to the base or to any record boundary, torn,
// with a byte flipped inside a record or in the header, with foreign
// records appended (one of them undecodable), rewritten by rename as
// another process's compaction would, or replaced by a version 1 store, a
// future version, garbage or nothing. Each case then reopens once more
// without a change, which a resident reopen serves from what the first
// left.
func TestStoreResidentReopenMatchesCold(t *testing.T) {
	base, baseEnds := reopenBase(t)
	names := workload.Names()
	foreign := func(t *testing.T, seq int64) []byte {
		e := testEntry(t, names[3], 8, "-XX:+UseG1GC")
		e.Seq = seq
		p, err := appendEntry(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		return frameImage(StoreVersion, p)[8:]
	}
	writeIn := func(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }
	rename := func(path string, b []byte) error {
		tmp := path + ".other"
		if err := os.WriteFile(tmp, b, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
	type change struct {
		name    string
		file    func(t *testing.T, cur []byte) []byte
		replace func(path string, b []byte) error
	}
	cases := []change{
		{"unchanged", func(_ *testing.T, cur []byte) []byte { return cur }, writeIn},
		{"truncated to the base", func(*testing.T, []byte) []byte { return base }, writeIn},
		{"torn own append", func(_ *testing.T, cur []byte) []byte { return cur[:len(cur)-3] }, writeIn},
		{"torn base", func(*testing.T, []byte) []byte { return base[:baseEnds[2]+5] }, writeIn},
		{"flipped byte mid-file", func(_ *testing.T, cur []byte) []byte {
			b := bytes.Clone(cur)
			b[len(b)/2] ^= 0x40
			return b
		}, writeIn},
		{"flipped header byte", func(_ *testing.T, cur []byte) []byte {
			b := bytes.Clone(cur)
			b[1] ^= 0x40
			return b
		}, writeIn},
		{"foreign append", func(t *testing.T, cur []byte) []byte { return append(bytes.Clone(cur), foreign(t, 40)...) }, writeIn},
		{"truncated then foreign append", func(t *testing.T, _ []byte) []byte {
			return append(bytes.Clone(base[:baseEnds[1]]), foreign(t, 2)...)
		}, writeIn},
		{"undecodable foreign record", func(t *testing.T, cur []byte) []byte {
			b := append(bytes.Clone(cur), frameImage(StoreVersion, []byte{0x7f, 'x'})[8:]...)
			return append(b, foreign(t, 41)...)
		}, writeIn},
		{"compacted by another process", func(t *testing.T, _ []byte) []byte {
			mark, err := appendRecord(nil, &storeRecord{Kind: "mark", NextSeq: 30})
			if err != nil {
				t.Fatal(err)
			}
			return append(frameImage(StoreVersion, mark), base[baseEnds[3]:]...)
		}, rename},
		{"version 1", func(t *testing.T, _ []byte) []byte {
			return v1Image(t, storeRecord{Kind: "entry", Entry: testEntry(t, names[4], 9, "-XX:+UseG1GC")})
		}, rename},
		{"future version", func(*testing.T, []byte) []byte { return frameImage(StoreVersion + 1) }, writeIn},
		{"garbage head", func(*testing.T, []byte) []byte { return []byte("not a store") }, writeIn},
		{"empty", func(*testing.T, []byte) []byte { return nil }, writeIn},
	}
	// Every record boundary of the base plus the own append, and the
	// header alone.
	for i := 0; i <= len(baseEnds)+1; i++ {
		cases = append(cases, change{"truncated to a record boundary", func(_ *testing.T, cur []byte) []byte {
			ends := append([]int{8}, baseEnds...)
			return cur[:append(ends, len(cur))[i]]
		}, writeIn})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, storeFile)
			if err := os.WriteFile(path, base, 0o644); err != nil {
				t.Fatal(err)
			}
			openAppendClose(t, dir)
			cur, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.replace(path, c.file(t, cur)); err != nil {
				t.Fatal(err)
			}
			matchCold(t, dir)
			matchCold(t, dir)
		})
	}
}

// TestStoreOpenCountsReplayedAndReused pins what an open reports it cost:
// transfer_store_entries_replayed_total counts the entries decoded from the
// file and transfer_store_entries_reused_total those a reopen kept from the
// resident store, across a cold open, a reopen of the file as the store
// left it (the entry it appended lies past what its open read, so the
// reopen decodes that one), a reopen of a file that did not change since
// the last open, one of the file truncated back, and one of the file with
// a record appended by someone else.
func TestStoreOpenCountsReplayedAndReused(t *testing.T) {
	base, ends := reopenBase(t) // five entries and a watermark
	dir := t.TempDir()
	path := filepath.Join(dir, storeFile)
	if err := os.WriteFile(path, base, 0o644); err != nil {
		t.Fatal(err)
	}
	open := func(name string, replayed, reused uint64) *Store {
		t.Helper()
		tel := telemetry.New()
		st, err := Open(dir, tel)
		if err != nil {
			t.Fatal(err)
		}
		got := [2]uint64{tel.Counter("transfer_store_entries_replayed_total").Value(),
			tel.Counter("transfer_store_entries_reused_total").Value()}
		if got != [2]uint64{replayed, reused} {
			t.Fatalf("%s: replayed, reused = %v, want %v", name, got, [2]uint64{replayed, reused})
		}
		return st
	}

	st := open("cold open", 5, 0)
	if err := st.Append(reopenProbe()); err != nil {
		t.Fatal(err)
	}
	st.Close()
	open("own append", 1, 5).Close()
	open("unchanged", 0, 6).Close()

	if err := os.Truncate(path, int64(ends[2])); err != nil {
		t.Fatal(err)
	}
	open("truncated", 0, 3).Close()

	e := testEntry(t, workload.Names()[3], 8)
	e.Seq = 3
	p, err := appendEntry(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frameImage(StoreVersion, p)[8:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st = open("foreign append", 1, 3)
	if st.Len() != 4 || st.Entries()[3].Workload != e.Workload {
		t.Fatalf("foreign append: %d entries, want the 3 kept and the appended one", st.Len())
	}
	st.Close()
}

// FuzzStoreReopen holds a resident reopen to a cold open of the same bytes
// for any pair of files: it opens a as the store file, appends the probe,
// closes, replaces the file with b and reopens, then compares the reopen
// with a cold open of b in a fresh directory (see matchCold), twice.
//
// The checked-in seeds pair one small store a (an entry, then a watermark
// at 7) with these files b: a itself; a with the probe appended, as the
// store left it; that file truncated to each record boundary; torn inside
// the probe; with one byte flipped in the entry; with a foreign record
// appended; a version 1 store; a StoreVersion+1 header; and a garbage
// head.
func FuzzStoreReopen(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, storeFile)
		if err := os.WriteFile(path, a, 0o644); err != nil {
			t.Fatal(err)
		}
		openAppendClose(t, dir)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		matchCold(t, dir)
		matchCold(t, dir)
	})
}
