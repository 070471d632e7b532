package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
// and a version 2 to 5 file cut anywhere inside a delta record decodes to
// the snapshot of the records before it. The corpus in testdata/fuzz holds
// version 1 to 5 images (version 2 ones in the JSON record layout of
// versions 2 to 4) and headers from the future.
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
	for _, seed := range recordSeeds(f) {
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
		if binary.LittleEndian.Uint32(data[4:8]) == 1 {
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

// recordSeeds are images at this build's Version that FuzzSnapshotDecode
// starts from: a base alone, a base plus deltas, a torn delta tail, a
// bad-CRC delta, a delta with no base, a delta whose trials do not
// continue the log, a base whose runner state is JSON segments then a
// binary one (a session resumed from a version 4 file), and a header one
// version ahead.
func recordSeeds(t testing.TB) []struct {
	name string
	data []byte
} {
	snaps := growingSnapshots(3)
	full := keeperImage(t, snaps...)
	base := keeperImage(t, snaps[0])
	badCRC := append([]byte(nil), full...)
	badCRC[len(badCRC)-2] ^= 0xff
	d01 := deltaRecord(t, snaps[0], snaps[1])
	d12 := deltaRecord(t, snaps[1], snaps[2])
	future := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(future[4:8], Version+1)
	var st runner.State
	if err := st.RestoreState(snaps[2].RunnerState); err != nil {
		t.Fatal(err)
	}
	st.Reserve("-Xmx2g", 1)
	mixed := *snaps[2]
	var err error
	if mixed.RunnerState, err = st.SnapshotState(); err != nil {
		t.Fatal(err)
	}
	v := fmt.Sprintf("v%d_", Version)
	return []struct {
		name string
		data []byte
	}{
		{v + "base_only", base},
		{v + "base_deltas", full},
		{v + "torn_delta_tail", full[:len(full)-7]},
		{v + "bad_crc_delta", badCRC},
		{v + "delta_without_base", append(append([]byte(nil), base[:headerSize]...), d01...)},
		{v + "delta_gap", append(append([]byte(nil), base...), d12...)},
		{fmt.Sprintf("future_version_%d", Version+1), future},
		{v + "mixed_state", encoded(t, &mixed)},
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
