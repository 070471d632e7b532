package dispatch

import (
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestFleetReplay: membership, death, and in-flight ownership written by
// one process are reconstructed by the next.
func TestFleetReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	tel := telemetry.New()
	f, view, err := OpenFleet(path, tel)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(view.Known) != 0 || len(view.Inflight) != 0 {
		t.Fatalf("fresh journal should replay empty, got %+v", view)
	}
	f.register("a")
	f.register("b")
	f.dead("b")
	f.dispatch("a", "k1")
	f.dispatch("b", "k2")
	f.settle("a", "k1")
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	f2, view, err := OpenFleet(path, tel)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer f2.Close()
	if len(view.Known) != 2 || view.Known[0] != "a" || view.Known[1] != "b" {
		t.Fatalf("known = %v, want [a b]", view.Known)
	}
	if !view.Dead["b"] || view.Dead["a"] {
		t.Fatalf("dead = %v, want only b", view.Dead)
	}
	if len(view.Inflight) != 1 || view.Inflight["k2"] != "b" {
		t.Fatalf("inflight = %v, want k2 owned by b", view.Inflight)
	}
}

// TestFleetAliveClearsDeath: a revival record supersedes an earlier
// death.
func TestFleetAliveClearsDeath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	tel := telemetry.New()
	f, _, err := OpenFleet(path, tel)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	f.register("a")
	f.dead("a")
	f.alive("a")
	f.Close()

	f2, view, err := OpenFleet(path, tel)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer f2.Close()
	if view.Dead["a"] {
		t.Fatal("alive record should clear the death")
	}
}

// TestFleetSkipsBadRecords: a CRC-valid frame whose payload fails to
// parse (a future protocol generation) is counted and skipped, not fatal.
func TestFleetSkipsBadRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	tel := telemetry.New()
	j, _, err := checkpoint.OpenJournal(path, checkpoint.JournalKind, tel)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if err := j.Append([]byte(`{"op":"register","node":"a"}`)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := j.Append([]byte(`this is not json`)); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	j.Close()

	f, view, err := OpenFleet(path, tel)
	if err != nil {
		t.Fatalf("fleet open over mixed journal: %v", err)
	}
	defer f.Close()
	if len(view.Known) != 1 || view.Known[0] != "a" {
		t.Fatalf("good record lost: %v", view.Known)
	}
	if tel.Counter("dispatch_fleet_bad_records_total").Value() != 1 {
		t.Error("bad record should be counted")
	}
}

// TestAttachFleetAdoptsOrphans: a dispatch with no settle from a dead
// controller is adopted — ownership cleared, surfaced via Orphans, and
// absent from the next replay.
func TestAttachFleetAdoptsOrphans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	tel := telemetry.New()
	f, _, err := OpenFleet(path, tel)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	f.register("a")
	f.register("b")
	f.dead("b")
	f.dispatch("a", "trial-x")
	f.Close() // controller "dies" with trial-x in flight

	prof, ok := workload.ByName("fop")
	if !ok {
		t.Fatal("no fop workload")
	}
	pool, err := NewPool(prof, NewLocal(prof, "a"), NewLocal(prof, "b"))
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	pool.Telemetry = tel
	f2, view, err := OpenFleet(path, tel)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	pool.AttachFleet(f2, view)
	if got := pool.Orphans(); len(got) != 1 || got[0] != "trial-x" {
		t.Fatalf("orphans = %v, want [trial-x]", got)
	}
	if !pool.nodes[1].dead || pool.nodes[1].until.IsZero() {
		t.Fatal("node last seen dead should start quarantined")
	}
	if pool.nodes[0].dead {
		t.Fatal("healthy node should start in rotation")
	}
	if tel.Counter("dispatch_orphans_adopted_total").Value() != 1 {
		t.Error("adoption should be counted")
	}
	pool.Close()

	f3, view, err := OpenFleet(path, tel)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer f3.Close()
	if len(view.Inflight) != 0 {
		t.Fatalf("adopted orphans should be settled in the journal, still have %v", view.Inflight)
	}
}

// TestFleetNilSafe: a pool without a fleet journal must never crash on
// the journaling paths.
func TestFleetNilSafe(t *testing.T) {
	var f *Fleet
	f.register("a")
	f.dispatch("a", "k")
	f.settle("a", "k")
	if err := f.Close(); err != nil {
		t.Fatalf("nil fleet close: %v", err)
	}
}
