package checkpoint

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata fixtures with what this build writes")

// The fixtures keeper.ckpt and journal.wal were written by these tests run
// with -update at commit 77b7498, the last build in which the Keeper and
// the journal each wrote their own files. The tests run the same writes
// through this build and demand the same bytes, then read the fixtures
// back: moving both writers onto one Journal changed no byte on disk.
// keeper.ckpt is a version 2 file, so its header is the one byte this
// build writes differently (see Version); -update leaves it alone.
//
//	go test ./internal/checkpoint -run Fixture -update

// fixture compares got with testdata/name, after rewriting the fixture
// from got when -update is set.
func fixture(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: this build wrote %d bytes that differ from the fixture's %d", name, len(got), len(want))
	}
}

// fixtureCopy copies testdata/name into a temp dir, so opening it can
// salvage or append without touching the fixture.
func fixtureCopy(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// keeperFixtureSnapshots are the snapshots the Keeper fixture writes:
// three growing rounds, then three whose runner state a restore started
// over, so the fourth write rebases onto a new base and the last two
// append deltas to it.
func keeperFixtureSnapshots() []*Snapshot {
	snaps := growingSnapshots(6)
	out := snaps[:3:3]
	for _, s := range snaps[3:] {
		c := *s
		c.RunnerState = append([]byte(`{"elapsed":63}`), s.RunnerState[len(snaps[2].RunnerState):]...)
		out = append(out, &c)
	}
	return out
}

func TestKeeperFixture(t *testing.T) {
	snaps := keeperFixtureSnapshots()
	path := filepath.Join(t.TempDir(), "keeper.ckpt")
	k := NewKeeper(path, 1, nil)
	for _, s := range snaps {
		k.Write(s)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "keeper.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(want[4:headerSize]); v != 2 {
		t.Fatalf("fixture header reads version %d, want 2", v)
	}
	if v := binary.LittleEndian.Uint32(got[4:headerSize]); v != Version {
		t.Fatalf("this build wrote version %d, want %d", v, Version)
	}
	if !bytes.Equal(got[headerSize:], want[headerSize:]) {
		t.Fatalf("keeper.ckpt: this build wrote %d bytes whose records differ from the fixture's %d", len(got), len(want))
	}
	if !bytes.Equal(got, v2Image(t, snaps[3:]...)) {
		t.Fatal("the rebase did not start the file over")
	}

	loaded, err := Load(filepath.Join("testdata", "keeper.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, loaded), encoded(t, snaps[len(snaps)-1])) {
		t.Fatal("the fixture loads to a different snapshot than the last one written")
	}
}

// journalFixtureRecords is what the journal fixture holds: the two
// records of its rewrite, then the three appended after it.
var journalFixtureRecords = []string{
	`{"op":"next","id":7}`, `{"op":"submit","id":6}`,
	`{"op":"submit","id":7}`, `{"op":"submit","id":8}`, `{"op":"submit","id":9}`,
}

func TestJournalFixture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := OpenJournal(path, JournalKind, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if err := j.Append([]byte(fmt.Sprintf(`{"op":"submit","id":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Rewrite([][]byte{[]byte(journalFixtureRecords[0]), []byte(journalFixtureRecords[1])}); err != nil {
		t.Fatal(err)
	}
	for _, r := range journalFixtureRecords[2:] {
		if err := j.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fixture(t, "journal.wal", got)

	j2, records, err := OpenJournal(fixtureCopy(t, "journal.wal"), JournalKind, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(records) != len(journalFixtureRecords) {
		t.Fatalf("fixture replays %d records, want %d", len(records), len(journalFixtureRecords))
	}
	for i, r := range records {
		if string(r) != journalFixtureRecords[i] {
			t.Fatalf("fixture record %d = %q, want %q", i, r, journalFixtureRecords[i])
		}
	}
	if v := j2.Version(); v != JournalKind.Version {
		t.Fatalf("fixture opens at version %d, want %d", v, JournalKind.Version)
	}
}
