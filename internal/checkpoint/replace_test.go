package checkpoint

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// wantMode fails unless the file at path has mode 0644.
func wantMode(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != 0o644 {
		t.Fatalf("%s has mode %v after a rewrite, want -rw-r--r--", filepath.Base(path), got)
	}
}

// TestRewritesKeepMode: a file replaced through ReplaceFile is 0644, the
// mode a fresh journal gets, not the 0600 its temp was created with —
// after a journal Rewrite and after every Keeper base write.
func TestRewritesKeepMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.wal")
	j, _, err := OpenJournal(path, JournalKind, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Rewrite([][]byte{[]byte("kept")}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	wantMode(t, path)

	ckpt := filepath.Join(dir, "s.ckpt")
	k := NewKeeper(ckpt, 1, nil)
	k.Write(sampleSnapshot())
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	wantMode(t, ckpt)
}

// TestKeeperSweepsStaleTemps: a crash inside a base write strands its
// temp next to the checkpoint. The Keeper owns the path, so its first
// base write removes every such temp, counting them.
func TestKeeperSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ckpt")
	stale := path + ".compact4242"
	if err := os.WriteFile(stale, []byte("half a base"), 0o600); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	k := NewKeeper(path, 1, reg)
	k.Write(sampleSnapshot())
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stranded temp survived the Keeper's base write: %v", err)
	}
	if got := reg.Counter("checkpoint_stale_temps_removed_total").Value(); got != 1 {
		t.Fatalf("checkpoint_stale_temps_removed_total = %d, want 1", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d files after the sweep, want the checkpoint alone", len(entries))
	}
}
