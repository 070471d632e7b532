package transfer

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata fixtures with what this build writes")

// writeFixtureStore runs the store fixture's writes against dir: 40
// appends over seven workloads and three configurations, so groups repeat
// with better and worse scores, then one compaction, then 5 appends.
func writeFixtureStore(t *testing.T, dir string) {
	t.Helper()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := workload.Names()
	configs := [][]string{
		{"-XX:+UseG1GC"},
		{"-XX:+UseSerialGC", "-Xmx2g"},
		{"-XX:+UseParallelGC", "-XX:ParallelGCThreads=4"},
	}
	add := func(i int) {
		if err := st.Append(testEntry(t, names[i%7], float64(10+(i*7)%11), configs[i%3]...)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		add(i)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 40; i < 45; i++ {
		add(i)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreFixture holds the store to testdata/compacted.store, written by
// this test run with -update at commit 77b7498, the last build in which
// the store framed its own file:
//
//	go test ./internal/transfer -run Fixture -update
//
// This build must write the same bytes, and read the fixture back to the
// same entries. The fixture is also the reference for frameImage, the
// test-only framing the other store tests build their images with.
func TestStoreFixture(t *testing.T) {
	dir := t.TempDir()
	writeFixtureStore(t, dir)
	got, err := os.ReadFile(filepath.Join(dir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "compacted.store")
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
		t.Fatalf("this build wrote %d bytes that differ from the fixture's %d", len(got), len(want))
	}

	fixtureDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(fixtureDir, storeFile), want, 0o644); err != nil {
		t.Fatal(err)
	}
	ours, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ours.Close()
	theirs, err := Open(fixtureDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer theirs.Close()
	a, b := ours.Entries(), theirs.Entries()
	if len(a) != len(b) || len(b) == 0 {
		t.Fatalf("this build's store holds %d entries, the fixture %d", len(a), len(b))
	}
	for i := range a {
		if !sameEntry(a[i], b[i]) {
			t.Fatalf("entry %d reads differently:\n%+v\n%+v", i, a[i], b[i])
		}
	}

	// The fixture in file order: the compaction's watermark, the entries
	// it kept, then the later appends.
	payloads := [][]byte{appendMark(nil, 40)}
	for _, e := range theirs.s.entries {
		p, err := appendEntry(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	if !bytes.Equal(frameImage(StoreVersion, payloads...), want) {
		t.Fatal("frameImage does not reproduce the fixture")
	}
}
