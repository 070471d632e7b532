package hotspot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/flags"
	"repro/internal/flags/flagstest"
	"repro/internal/hierarchy"
	"repro/internal/transfer"
	"repro/internal/workload"
)

// TestTransferWarmStartHalvesTrialBudget is the subsystem's acceptance
// check: a full-budget cold session trains the knowledge base, and a
// warm-started session on the same workload (different seed) capped at HALF
// the cold session's trials must still reach the cold best. The priors skip
// the search straight to the good region, so the halved budget is enough.
func TestTransferWarmStartHalvesTrialBudget(t *testing.T) {
	dir := t.TempDir()
	base := Options{
		Benchmark:     "h2",
		Searcher:      "surrogate",
		BudgetMinutes: 30,
		Seed:          7,
		Noise:         -1,
		TransferDir:   dir,
	}
	cold, err := Tune(base)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Transfer == nil {
		t.Fatal("transfer-enabled session reports no transfer provenance")
	}
	if cold.Transfer.Priors != 0 || cold.Transfer.StoreEntries != 0 {
		t.Fatalf("first session over an empty store must start cold: %+v", cold.Transfer)
	}
	if !cold.Transfer.Recorded {
		t.Fatal("cold session's winner was not recorded into the store")
	}

	warm := base
	warm.Seed = 8
	warm.MaxTrials = cold.Trials / 2
	res, err := Tune(warm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfer == nil || res.Transfer.Priors < 1 {
		t.Fatalf("warm session injected no priors: %+v", res.Transfer)
	}
	if res.Transfer.NearestWorkload != "h2" || res.Transfer.NearestDistance != 0 {
		t.Fatalf("same-workload fingerprint should be the nearest neighbour at distance 0: %+v", res.Transfer)
	}
	if res.Trials > cold.Trials/2 {
		t.Fatalf("warm session ran %d trials, cap was %d", res.Trials, cold.Trials/2)
	}
	if res.BestWall > cold.BestWall {
		t.Fatalf("warm session at half the trials (%d vs %d) missed the cold best: %.4fs > %.4fs",
			res.Trials, cold.Trials, res.BestWall, cold.BestWall)
	}
}

// TestTransferCrossWorkload pins that knowledge transfers BETWEEN
// workloads, not just across seeds of one: a store trained on h2 must warm
// a session on avrora (another DaCapo profile, nearby in fingerprint space
// but not identical).
func TestTransferCrossWorkload(t *testing.T) {
	dir := t.TempDir()
	donor := Options{Benchmark: "h2", BudgetMinutes: 30, Seed: 3, Noise: -1, TransferDir: dir}
	if _, err := Tune(donor); err != nil {
		t.Fatal(err)
	}
	target := donor
	target.Benchmark = "avrora"
	res, err := Tune(target)
	if err != nil {
		t.Fatal(err)
	}
	x := res.Transfer
	if x == nil || x.Priors < 1 {
		t.Fatalf("cross-workload session injected no priors: %+v", x)
	}
	if x.NearestWorkload != "h2" {
		t.Fatalf("nearest neighbour = %q, want h2", x.NearestWorkload)
	}
	if x.NearestDistance <= 0 {
		t.Fatalf("distinct workloads at distance %v, want > 0", x.NearestDistance)
	}
}

// TestTransferOffLeavesSessionByteIdentical pins the transfer-off
// guarantee: a session with an empty knowledge base produces a
// byte-identical event trace and checkpoint file to one with transfer
// disabled entirely — the subsystem contributes nothing (not even RNG
// draws or checkpoint fields) until the store actually holds priors.
func TestTransferOffLeavesSessionByteIdentical(t *testing.T) {
	run := func(transferDir string) (trace, ckpt []byte, meta checkpoint.Meta, res *Result) {
		t.Helper()
		ckptPath := filepath.Join(t.TempDir(), "s.ckpt")
		tr := NewTracer(1 << 16)
		res, err := Tune(Options{
			Benchmark:             "fop",
			BudgetMinutes:         30,
			Seed:                  3,
			Noise:                 -1,
			Trace:                 tr,
			CheckpointPath:        ckptPath,
			CheckpointEveryTrials: 4,
			TransferDir:           transferDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Load(ckptPath)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), readFile(t, ckptPath), snap.Meta, res
	}

	offTrace, offCkpt, offMeta, offRes := run("")
	emptyTrace, emptyCkpt, emptyMeta, emptyRes := run(t.TempDir())

	if offRes.Transfer != nil {
		t.Fatal("transfer-off session reports transfer provenance")
	}
	if emptyRes.Transfer == nil || emptyRes.Transfer.Priors != 0 {
		t.Fatalf("empty-store session should report a cold start: %+v", emptyRes.Transfer)
	}
	if !bytes.Equal(offTrace, emptyTrace) {
		t.Error("event traces differ between transfer-off and empty-store sessions")
	}
	if offMeta != emptyMeta {
		t.Errorf("checkpoint fingerprints differ: %+v vs %+v", offMeta, emptyMeta)
	}
	if !bytes.Equal(offCkpt, emptyCkpt) {
		t.Error("checkpoint files differ between transfer-off and empty-store sessions")
	}
	if emptyMeta.Transfer != "" {
		t.Errorf("empty-store session checkpointed a transfer fingerprint %q", emptyMeta.Transfer)
	}
	if offRes.Best.Key() != emptyRes.Best.Key() || offRes.BestWall != emptyRes.BestWall {
		t.Errorf("outcomes differ: %q %.4f vs %q %.4f",
			offRes.Best.Key(), offRes.BestWall, emptyRes.Best.Key(), emptyRes.BestWall)
	}
}

// TestTransferBogusStoreDegradesToCold pins fail-open behavior at the
// session level: a future-version store (written by a newer build) must
// neither fail the session nor be touched, and a corrupt store is moved
// aside and rebuilt — either way the session completes.
func TestTransferBogusStoreDegradesToCold(t *testing.T) {
	dir := t.TempDir()
	// Future version: magic "ATTS" then version 99.
	path := filepath.Join(dir, "transfer.store")
	future := []byte{'A', 'T', 'T', 'S', 99, 0, 0, 0}
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Tune(Options{Benchmark: "fop", BudgetMinutes: 20, Seed: 5, Noise: -1, TransferDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfer == nil || res.Transfer.Priors != 0 {
		t.Fatalf("future-version store should yield a cold start: %+v", res.Transfer)
	}
	if res.Transfer.Recorded {
		t.Fatal("an older build must not write through a future-version store")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, future) {
		t.Fatal("future-version store bytes were modified")
	}
}

// storeFDs counts this process's file descriptors open on path.
func storeFDs(t *testing.T, path string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == path {
			n++
		}
	}
	return n
}

// TestTransferStoreClosedOnEveryPath pins that a session releases its
// store on every way out — an error before the search starts and a
// crash-point kill included, not only after a completed run. A store left
// open would hold its descriptor and, since handles on one directory share
// their state, serve the next session stale entries.
func TestTransferStoreClosedOnEveryPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "transfer.store")
	opts := Options{Benchmark: "fop", BudgetMinutes: 10, Seed: 2, Noise: -1, TransferDir: dir}

	bad := opts
	bad.Chaos = "no-such-fault=1"
	if _, err := Tune(bad); err == nil {
		t.Fatal("invalid chaos plan accepted")
	}
	if n := storeFDs(t, path); n != 0 {
		t.Fatalf("%d descriptors still open on the store after a failed session", n)
	}

	crashTune(t, opts, "crash-at=3")
	if n := storeFDs(t, path); n != 0 {
		t.Fatalf("%d descriptors still open on the store after a crash-point kill", n)
	}

	if _, err := Tune(opts); err != nil {
		t.Fatal(err)
	}
	if n := storeFDs(t, path); n != 0 {
		t.Fatalf("%d descriptors still open on the store after a completed session", n)
	}
}

// TestTransferV1StoreMigrationDrill is the format-migration drill behind
// `make transfer-drill`. testdata/transfer_v1.store is a small format v1
// store (four entries behind a compaction watermark) and
// testdata/transfer_v1.golden.json the result of one fixed-seed session
// warm-started from it, both written by the last build that wrote v1; they
// cannot be regenerated by this build, which writes v2 only. A session on
// a copy of the fixture must reproduce the golden byte for byte and leave
// the store rewritten as v2; a session on the migrated file alone must give
// the same bytes and leave the same store bytes behind.
func TestTransferV1StoreMigrationDrill(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "transfer_v1.store"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "transfer_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(fixture[4:8]); v != 1 {
		t.Fatalf("fixture header reads version %d, want 1", v)
	}
	copyFixture := func() string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "transfer.store"), fixture, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	storeVersion := func(dir string) ([]byte, uint32) {
		b, err := os.ReadFile(filepath.Join(dir, "transfer.store"))
		if err != nil {
			t.Fatal(err)
		}
		return b, binary.LittleEndian.Uint32(b[4:8])
	}
	session := func(dir string) []byte {
		res, err := Tune(Options{Benchmark: "lusearch", BudgetMinutes: 30, Seed: 11, Noise: -1, TransferDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	first := copyFixture()
	if got := session(first); !bytes.Equal(got, golden) {
		t.Fatalf("session on the v1 fixture differs from the golden:\n%s", got)
	}
	firstStore, v := storeVersion(first)
	if v != transfer.StoreVersion {
		t.Fatalf("store reads version %d after the session, want %d", v, transfer.StoreVersion)
	}

	second := copyFixture()
	st, err := transfer.Open(second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, v := storeVersion(second); v != transfer.StoreVersion {
		t.Fatalf("migrated store reads version %d, want %d", v, transfer.StoreVersion)
	}
	if got := session(second); !bytes.Equal(got, golden) {
		t.Fatalf("session on the migrated store differs from the golden:\n%s", got)
	}
	if secondStore, _ := storeVersion(second); !bytes.Equal(firstStore, secondStore) {
		t.Fatal("migrating in a session and migrating alone left different store bytes")
	}
}

// TestTransferSkipsWinnersAtDefaults: a winner with no assignment off its
// default carries no tuning knowledge and is not recorded, even when an
// explicit -XX:+UseParallelGC keeps its key non-empty; a real winner is.
func TestTransferSkipsWinnersAtDefaults(t *testing.T) {
	prof, _ := workload.ByName("h2")
	dir := t.TempDir()
	for _, c := range []struct {
		args     []string
		recorded bool
	}{
		{nil, false},
		{[]string{"-XX:+UseParallelGC"}, false},
		{[]string{"-XX:+UseG1GC"}, true},
	} {
		best, err := flags.ParseArgs(flags.NewRegistry(), c.args)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{TransferDir: dir}
		ts := transferSetup(opts, prof)
		res := &Result{Best: best, BestWall: 40, DefaultWall: 50, Searcher: "hierarchical", Trials: 10}
		ts.finish(res, opts, prof, nil, 600)
		if err := ts.store.Close(); err != nil {
			t.Fatal(err)
		}
		if res.Transfer.Recorded != c.recorded {
			t.Errorf("winner %v (key %q): recorded %v, want %v", c.args, best.Key(), res.Transfer.Recorded, c.recorded)
		}
	}
}

// TestTransferPriorsCanonical: a store entry written before entries were
// stored in canonical form holds its winner's explicit defaults too. The
// surrogate credits every explicit assignment of a prior, so a warm start
// must read such an entry as a prior in canonical form, exactly as it
// reads the same winner stored by this build.
func TestTransferPriorsCanonical(t *testing.T) {
	donor, err := Tune(Options{Benchmark: "h2", BudgetMinutes: 30, Seed: 3, Noise: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Older builds stored a hierarchical winner with every flag active
	// under its branches explicit, defaults included.
	wide := flagstest.WideArgs(flagstest.Widen(donor.Best, hierarchy.Build(donor.Best.Registry()).ActiveFlags(donor.Best)))
	if len(wide) < 300 {
		t.Fatalf("the pre-canonical h2 winner has %d args (%d canonical), want the ~350 older builds stored", len(wide), len(donor.CommandLine))
	}
	prof, ok := workload.ByName("h2")
	if !ok {
		t.Fatal("no h2 profile")
	}
	warm := func(bench string, args []string) []byte {
		t.Helper()
		dir := t.TempDir()
		st, err := transfer.Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(&transfer.Entry{
			FP: transfer.FingerprintOf(prof), Workload: "h2", Searcher: "hierarchical", Objective: "throughput",
			Seed: 3, Args: args, Score: donor.BestWall, BaselineScore: donor.DefaultWall,
		}); err != nil {
			t.Fatal(err)
		}
		st.Close()
		res, err := Tune(Options{Benchmark: bench, Searcher: "surrogate", BudgetMinutes: 200, Seed: 7, Noise: -1, TransferDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if res.Transfer == nil || res.Transfer.Priors != 1 {
			t.Fatalf("%s: warm start injected %+v, want the one prior", bench, res.Transfer)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, bench := range []string{"h2", "avrora", "xalan"} {
		if canonical, explicit := warm(bench, donor.CommandLine), warm(bench, wide); !bytes.Equal(canonical, explicit) {
			t.Errorf("%s: a warm start from the winner's explicit args differs from one from its canonical args:\n%s\n%s", bench, canonical, explicit)
		}
	}
}
