package dispatch

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flags"
	"repro/internal/telemetry"
)

// TestFleetReplay: membership and death written by one process are
// reconstructed by the next.
func TestFleetReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	tel := telemetry.New()
	f, view, err := OpenFleet(path, tel)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(view.Known) != 0 || len(view.Dead) != 0 || len(view.Members) != 0 {
		t.Fatalf("fresh journal should replay empty, got %+v", view)
	}
	f.register("a")
	f.register("b")
	f.dead("b")
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

// TestAttachFleetReplaysOlderJournal: testdata/placements.fleet was
// written by the last build that journaled every placement: register,
// join, drain, dead and alive records among per-trial dispatch and settle
// ones, two of them never settled, and a torn tail. It replays to the
// membership that build replayed from it, the placement records skipped
// as no-ops rather than counted bad, and a node last seen dead still
// starts quarantined.
func TestAttachFleetReplaysOlderJournal(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "placements.fleet"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "older.fleet")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	f, view, err := OpenFleet(path, tel)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// What the writing build's own OpenFleet replayed from this file.
	want := &FleetView{
		Known:   []string{"j0", "j1", "n0", "n1"},
		Dead:    map[string]bool{"n1": true},
		Members: map[string]string{"j0": "127.0.0.1:8426"},
	}
	if !reflect.DeepEqual(view, want) {
		t.Fatalf("replayed %+v, want %+v", view, want)
	}
	for series, want := range map[string]uint64{
		"journal_salvaged_total":           1,
		"journal_records_replayed_total":   16,
		"dispatch_fleet_bad_records_total": 0,
	} {
		if got := tel.Counter(series).Value(); got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}

	prof := poolProfile(t, "fop")
	pool, err := NewPool(prof, NewLocal(prof, "n0"), NewLocal(prof, "n1"))
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	pool.Telemetry = tel
	pool.AttachFleet(f, view)
	if !pool.nodes[1].dead || pool.nodes[1].until.IsZero() {
		t.Fatal("node last seen dead should start quarantined")
	}
	if pool.nodes[0].dead {
		t.Fatal("healthy node should start in rotation")
	}
	if got := tel.Counter("journal_appends_total").Value(); got != 0 {
		t.Errorf("attaching known nodes appended %d records, want 0", got)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	f2, again, err := OpenFleet(path, telemetry.New())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer f2.Close()
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("salvaged file replayed %+v, want %+v", again, want)
	}
}

// TestPlacementsAppendNothingToFleetJournal: with a fleet journal
// attached, placing trials — one at a time, batched, and past a node the
// breaker quarantines — appends no record; only membership changes do.
func TestPlacementsAppendNothingToFleetJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "placements.fleet")
	tel := telemetry.New()
	f, view, err := OpenFleet(path, tel)
	if err != nil {
		t.Fatal(err)
	}
	prof := poolProfile(t, "fop")
	broken := &fakeEval{name: "broken", fn: func(*TrialRequest) (*TrialResult, error) {
		return nil, &NodeError{Node: "broken", Err: errors.New("connection refused")}
	}}
	pool := newTestPool(t, "fop", NewLocal(prof, "a"), NewLocal(prof, "b"), broken)
	pool.Telemetry = tel
	pool.AttachFleet(f, view)
	appends := func() uint64 { return tel.Counter("journal_appends_total").Value() }
	if got := appends(); got != 3 {
		t.Fatalf("registering 3 nodes appended %d records, want 3", got)
	}

	reg := flags.NewRegistry()
	cfgs := batchConfigs(reg, 8)
	for _, c := range cfgs[:4] {
		if m := pool.Measure(c, 1); m.Failed {
			t.Fatalf("measure: %+v", m)
		}
	}
	pool.Batch = 4
	for _, m := range pool.MeasureBatch(cfgs[4:], 1) {
		if m.Failed {
			t.Fatalf("measure batch: %+v", m)
		}
	}
	placed := tel.Counter("dispatch_evals_total").Value()
	if placed != 8 {
		t.Fatalf("dispatch_evals_total = %d, want 8", placed)
	}
	// The broken node is journaled dead once its breaker trips: a
	// membership change, the one record placing may cause.
	want := uint64(3)
	if pool.nodes[2].dead {
		want++
	}
	if got := appends(); got != want {
		t.Fatalf("%d placements appended %d records, want %d", placed, got, want)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetNilSafe: a pool without a fleet journal must never crash on
// the journaling paths.
func TestFleetNilSafe(t *testing.T) {
	var f *Fleet
	f.register("a")
	f.dead("a")
	f.alive("a")
	if err := f.Close(); err != nil {
		t.Fatalf("nil fleet close: %v", err)
	}
}
