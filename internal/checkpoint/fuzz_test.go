package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runner"
)

// FuzzSnapshotDecode hammers the snapshot decoder with arbitrary bytes. The
// contract under test is fail-closed decoding with torn-tail salvage: any
// input either decodes to a snapshot, or returns one of the two sentinel
// errors — never a panic, never a partially-decoded snapshot. A snapshot
// that decodes re-encodes, and its encoding decodes to the same snapshot;
// and a version 2 file cut anywhere inside a delta record decodes to the
// snapshot of the records before it.
func FuzzSnapshotDecode(f *testing.F) {
	v1 := encodeV1(f, &Snapshot{
		Meta:     Meta{Workload: "h2", Searcher: "random", Objective: "throughput", Seed: 1, Reps: 3},
		Trial:    3,
		BestKey:  "-Xmx1g",
		Baseline: fuzzBaseline(),
	})
	f.Add(v1)
	f.Add(v1[:headerSize])
	f.Add([]byte{})
	for _, seed := range v2Seeds(f) {
		f.Add(seed.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFutureVersion) {
				t.Fatalf("decode error is neither ErrCorrupt nor ErrFutureVersion: %v", err)
			}
			return
		}
		enc := encoded(t, s)
		if again := encoded(t, mustDecode(t, enc)); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoded snapshot decodes differently:\n%q\n%q", enc, again)
		}
		if binary.LittleEndian.Uint32(data[4:8]) != Version {
			return
		}
		// Record boundaries: the end of the base, then of each complete
		// delta the decoder folded in.
		var ends []int
		for rest := data[headerSize:]; ; {
			_, next, err := nextRecord(rest)
			if err != nil {
				break
			}
			ends = append(ends, len(data)-len(next))
			rest = next
		}
		for i := 1; i < len(ends); i++ {
			start, end := ends[i-1], ends[i]
			want := encoded(t, mustDecode(t, data[:start]))
			for _, cut := range []int{start + 1, start + recordHeaderSize, (start + end) / 2, end - 1} {
				if cut <= start || cut >= end {
					continue
				}
				if got := encoded(t, mustDecode(t, data[:cut])); !bytes.Equal(got, want) {
					t.Fatalf("cut at %d inside delta %d decodes past the last complete record", cut, i)
				}
			}
		}
	})
}

// v2Seeds are the version 2 images FuzzSnapshotDecode starts from: a base
// alone, a base plus deltas, a torn delta tail, a bad-CRC delta, a delta
// with no base, a delta whose trials do not continue the log, and a
// version 3 header.
func v2Seeds(t testing.TB) []struct {
	name string
	data []byte
} {
	snaps := growingSnapshots(3)
	full := v2Image(t, snaps...)
	base := v2Image(t, snaps[0])
	badCRC := append([]byte(nil), full...)
	badCRC[len(badCRC)-2] ^= 0xff
	d01 := deltaRecord(t, snaps[0], snaps[1])
	d12 := deltaRecord(t, snaps[1], snaps[2])
	future := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(future[4:8], Version+1)
	return []struct {
		name string
		data []byte
	}{
		{"v2_base_only", base},
		{"v2_base_deltas", full},
		{"v2_torn_delta_tail", full[:len(full)-7]},
		{"v2_bad_crc_delta", badCRC},
		{"v2_delta_without_base", append(append([]byte(nil), base[:headerSize]...), d01...)},
		{"v2_delta_gap", append(append([]byte(nil), base...), d12...)},
		{"future_version_3", future},
	}
}

// FuzzJournalReplay feeds arbitrary bytes to the journal recovery path. A
// file the opener accepts must come back usable: appends land, and a
// reopen replays the salvage result plus the new record. A rejected file
// must fail with a sentinel error, not a panic, and must not be modified.
func FuzzJournalReplay(f *testing.F) {
	fresh := JournalKind.header()
	withRecords := fresh
	for _, p := range []string{`{"op":"submit","id":1}`, `{"op":"done","id":1}`} {
		withRecords = appendRecord(withRecords, []byte(p))
	}
	f.Add([]byte{})
	f.Add(fresh)
	f.Add(withRecords)
	f.Add(withRecords[:len(withRecords)-3]) // torn tail
	f.Add([]byte("not a journal"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, records, err := OpenJournal(path, JournalKind, nil)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFutureVersion) {
				t.Fatalf("open error is neither sentinel: %v", err)
			}
			after, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(after, data) {
				t.Fatal("rejected journal was modified on disk")
			}
			return
		}
		if err := j.Append([]byte("probe")); err != nil {
			t.Fatalf("append to accepted journal: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		_, again, err := OpenJournal(path, JournalKind, nil)
		if err != nil {
			t.Fatalf("reopen after salvage: %v", err)
		}
		if len(again) != len(records)+1 || string(again[len(again)-1]) != "probe" {
			t.Fatalf("reopen replayed %d records, want %d plus probe", len(again), len(records)+1)
		}
	})
}

func fuzzBaseline() (m runner.Measurement) {
	m.Key = "default"
	m.Walls = []float64{20}
	m.Mean = 20
	m.CostSeconds = 20.5
	m.Attempts = 1
	return m
}
