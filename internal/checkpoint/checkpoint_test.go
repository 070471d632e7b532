package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Meta: Meta{
			Workload:      "h2",
			Searcher:      "hillclimb",
			Objective:     "throughput",
			Runner:        "*runner.InProcess",
			Seed:          42,
			BudgetSeconds: 1200,
			Reps:          3,
			Workers:       2,
			MaxTrials:     50,
		},
		Trial:     12,
		Elapsed:   431.5,
		BestKey:   "-Xmx2g",
		BestScore: 17.25,
		Baseline:  runner.Measurement{Key: "", Walls: []float64{20, 21}, Mean: 20.5, CostSeconds: 42, Attempts: 1},
		Trials: []TrialRecord{
			{Seq: 0, Key: "-Xmx1g", M: runner.Measurement{Key: "-Xmx1g", Mean: 19, CostSeconds: 20, Attempts: 1}},
			{Seq: 1, Key: "-Xmx2g", M: runner.Measurement{Key: "-Xmx2g", Mean: 17.25, CostSeconds: 18, Attempts: 2, Flakes: 1}},
		},
		RunnerState: []byte(`{"elapsed":431.5}`),
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	got, err := decode(encoded(t, want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Meta != want.Meta || got.Trial != want.Trial || got.BestKey != want.BestKey {
		t.Fatalf("round-trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if len(got.Trials) != 2 || got.Trials[1].M.Flakes != 1 {
		t.Fatalf("trial log mismatch: %+v", got.Trials)
	}
	if string(got.RunnerState) != string(want.RunnerState) {
		t.Fatalf("runner state mismatch: %s", got.RunnerState)
	}
}

func TestDecodeFailsClosed(t *testing.T) {
	v := encoded(t, sampleSnapshot())

	futureHeader := append([]byte(magic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(futureHeader[4:], Version+7)

	badCRC := append([]byte(nil), v...)
	badCRC[len(badCRC)-1] ^= 0xff

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorrupt},
		{"short header", []byte("ATC"), ErrCorrupt},
		{"bad magic", append([]byte("JUNK"), v[4:]...), ErrCorrupt},
		{"version zero", append([]byte(magic), 0, 0, 0, 0), ErrCorrupt},
		{"future version", futureHeader, ErrFutureVersion},
		{"header only", v[:headerSize], ErrCorrupt},
		{"torn record header", v[:headerSize+3], ErrCorrupt},
		{"truncated payload", v[:len(v)-5], ErrCorrupt},
		{"bad crc", badCRC, ErrCorrupt},
		// A version 1 file is one whole-snapshot record; in version 2 the
		// same byte would be a torn delta tail (TestDecodeSalvagesTornTail).
		{"trailing garbage", append(encodeV1(t, sampleSnapshot()), 'x'), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decode(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("decode = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsImplausibleLength(t *testing.T) {
	var h [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(h[:4], maxRecordBytes+1)
	if _, err := decode(append(snapshotKind.header(), h[:]...)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode = %v, want ErrCorrupt", err)
	}
}

// TestSaveLoadAtomic: a base write replaces the file whole, through a
// temp that does not outlive it.
func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "session.ckpt")

	if _, err := Load(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Load(missing) = %v, want ErrNotExist", err)
	}

	k := NewKeeper(path, 1, nil)
	k.Write(sampleSnapshot())
	second := sampleSnapshot()
	second.Trial = 40
	second.Meta.Seed = 7 // does not extend the first: a second base
	k.Write(second)
	if err := k.Close(); err != nil {
		t.Fatalf("Keeper: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, encoded(t, second)) {
		t.Fatal("second base write did not replace the file")
	}

	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Trial != 40 {
		t.Fatalf("Load returned trial %d, want 40", got.Trial)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".compact") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("expected exactly the snapshot file, got %d entries", len(entries))
	}
}

func TestMetaCheck(t *testing.T) {
	base := sampleSnapshot().Meta
	if err := base.Check(base); err != nil {
		t.Fatalf("identical meta rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Meta)
	}{
		{"seed", func(m *Meta) { m.Seed = 7 }},
		{"searcher", func(m *Meta) { m.Searcher = "random" }},
		{"workload", func(m *Meta) { m.Workload = "xml" }},
		{"objective", func(m *Meta) { m.Objective = "pause" }},
		{"runner", func(m *Meta) { m.Runner = "*runner.Subprocess" }},
		{"budget_seconds", func(m *Meta) { m.BudgetSeconds = 60 }},
		{"reps", func(m *Meta) { m.Reps = 1 }},
		{"workers", func(m *Meta) { m.Workers = 8 }},
		{"max_trials", func(m *Meta) { m.MaxTrials = 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := base
			tc.mutate(&want)
			err := base.Check(want)
			if err == nil {
				t.Fatal("mismatched meta accepted")
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Fatalf("error %q does not name field %q", err, tc.name)
			}
		})
	}
}

func TestKeeperCadence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ckpt")
	k := NewKeeper(path, 5, nil)
	if k.Due(4) {
		t.Fatal("due before cadence")
	}
	if !k.Due(5) {
		t.Fatal("not due at cadence")
	}
	snap := sampleSnapshot()
	snap.Trial = 5
	k.Write(snap)
	if k.Due(9) {
		t.Fatal("due again before next cadence")
	}
	if !k.Due(10) {
		t.Fatal("not due at next cadence")
	}
	if err := k.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("keeper wrote unreadable snapshot: %v", err)
	}
}

func TestKeeperDefaultCadenceAndNil(t *testing.T) {
	k := NewKeeper("x", 0, nil)
	if k.Due(DefaultEveryTrials - 1) {
		t.Fatal("default cadence fired early")
	}
	if !k.Due(DefaultEveryTrials) {
		t.Fatal("default cadence never fired")
	}
	var nilK *Keeper
	nilK.Resume(nil)
	nilK.Write(nil)
	if nilK.Due(100) {
		t.Fatal("nil keeper is not a no-op")
	}
	if err := nilK.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestKeeperReportsWriteError(t *testing.T) {
	reg := telemetry.New()
	k := NewKeeper(filepath.Join(t.TempDir(), "no-such-dir", "s.ckpt"), 1, reg)
	k.Write(sampleSnapshot())
	if err := k.Close(); err == nil {
		t.Fatal("Close returned nil after failed write")
	}
	if got := reg.Counter("checkpoint_write_errors_total").Value(); got != 1 {
		t.Fatalf("checkpoint_write_errors_total = %d, want 1", got)
	}
}

func TestJournalAppendReplay(t *testing.T) {
	reg := telemetry.New()
	path := filepath.Join(t.TempDir(), "journal.wal")

	j, records, err := OpenJournal(path, JournalKind, reg)
	if err != nil {
		t.Fatalf("OpenJournal (fresh): %v", err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(records))
	}
	for _, p := range []string{`{"op":"submit","id":1}`, `{"op":"state","id":1}`, `{"op":"done","id":1}`} {
		if err := j.Append([]byte(p)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := j.Append([]byte("after close")); err == nil {
		t.Fatal("Append after Close succeeded")
	}

	j2, records, err := OpenJournal(path, JournalKind, reg)
	if err != nil {
		t.Fatalf("OpenJournal (reopen): %v", err)
	}
	defer j2.Close()
	if len(records) != 3 || string(records[2]) != `{"op":"done","id":1}` {
		t.Fatalf("replay mismatch: %q", records)
	}
	if got := reg.Counter("journal_appends_total").Value(); got != 3 {
		t.Fatalf("journal_appends_total = %d, want 3", got)
	}
}

func TestJournalSalvagesCorruptTail(t *testing.T) {
	reg := telemetry.New()
	path := filepath.Join(t.TempDir(), "journal.wal")

	j, _, err := OpenJournal(path, JournalKind, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn record header at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, records, err := OpenJournal(path, JournalKind, reg)
	if err != nil {
		t.Fatalf("OpenJournal after torn tail: %v", err)
	}
	if len(records) != 2 || string(records[0]) != "one" || string(records[1]) != "two" {
		t.Fatalf("salvage lost the valid prefix: %q", records)
	}
	if got := reg.Counter("journal_salvaged_total").Value(); got != 1 {
		t.Fatalf("journal_salvaged_total = %d, want 1", got)
	}
	// The truncated journal must accept and retain fresh appends.
	if err := j2.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, records, err := OpenJournal(path, JournalKind, reg)
	if err != nil {
		t.Fatalf("OpenJournal after salvage+append: %v", err)
	}
	defer j3.Close()
	if len(records) != 3 || string(records[2]) != "three" {
		t.Fatalf("post-salvage append lost: %q", records)
	}
}

func TestJournalRejectsCorruptHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path, JournalKind, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenJournal(garbage) = %v, want ErrCorrupt", err)
	}

	future := filepath.Join(t.TempDir(), "future.wal")
	h := append([]byte(magic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(h[4:], Version+1)
	if err := os.WriteFile(future, h, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(future, JournalKind, nil); !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("OpenJournal(future) = %v, want ErrFutureVersion", err)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if err := j.Append([]byte("x")); err != nil {
		t.Fatalf("nil Append: %v", err)
	}
	if got := j.Size(); got != 0 {
		t.Fatalf("nil Size: %d", got)
	}
	if err := j.Rewrite([][]byte{[]byte("x")}); err != nil {
		t.Fatalf("nil Rewrite: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestJournalRewrite(t *testing.T) {
	reg := telemetry.New()
	path := filepath.Join(t.TempDir(), "journal.wal")

	j, _, err := OpenJournal(path, JournalKind, reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := j.Append([]byte("padding record to inflate the journal")); err != nil {
			t.Fatal(err)
		}
	}
	before := j.Size()

	// Compact down to two live records: the file shrinks, and the journal
	// keeps accepting appends after the rewritten tail.
	live := [][]byte{[]byte("alpha"), []byte("beta")}
	if err := j.Rewrite(live); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if after := j.Size(); after >= before {
		t.Fatalf("Rewrite did not shrink the journal: %d -> %d bytes", before, after)
	}
	if err := j.Append([]byte("gamma")); err != nil {
		t.Fatalf("Append after Rewrite: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, records, err := OpenJournal(path, JournalKind, reg)
	if err != nil {
		t.Fatalf("OpenJournal after Rewrite: %v", err)
	}
	defer j2.Close()
	want := []string{"alpha", "beta", "gamma"}
	if len(records) != len(want) {
		t.Fatalf("replayed %d records, want %d: %q", len(records), len(want), records)
	}
	for i, w := range want {
		if string(records[i]) != w {
			t.Fatalf("record %d = %q, want %q", i, records[i], w)
		}
	}
	// What a rewrite is for (the farm compacts, the store also migrates
	// and salvages) is the caller's to say, and to count.
	if got := reg.Counter("journal_compactions_total").Value(); got != 0 {
		t.Fatalf("Rewrite ticked journal_compactions_total = %d, want 0", got)
	}
	// No temp file should survive a successful rewrite.
	if stale, _ := filepath.Glob(path + ".compact*"); len(stale) != 0 {
		t.Fatalf("stale temp files after successful Rewrite: %v", stale)
	}
}

func TestJournalSweepsStaleCompactionTemps(t *testing.T) {
	reg := telemetry.New()
	path := filepath.Join(t.TempDir(), "journal.wal")

	j, _, err := OpenJournal(path, JournalKind, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("survivor")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// A crash between writing the compaction temp and renaming it leaves
	// the temp stranded; it holds no authoritative state and must go.
	stale := path + ".compact12345"
	if err := os.WriteFile(stale, []byte("half-written compaction"), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, records, err := OpenJournal(path, JournalKind, reg)
	if err != nil {
		t.Fatalf("OpenJournal with stale temp: %v", err)
	}
	defer j2.Close()
	if len(records) != 1 || string(records[0]) != "survivor" {
		t.Fatalf("stale temp corrupted replay: %q", records)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp not swept: %v", err)
	}
	if got := reg.Counter("journal_stale_temps_removed_total").Value(); got != 1 {
		t.Fatalf("journal_stale_temps_removed_total = %d, want 1", got)
	}
}
