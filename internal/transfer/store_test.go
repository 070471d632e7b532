package transfer

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

func testEntry(t *testing.T, name string, score float64, args ...string) *Entry {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		all := workload.All()
		p = all[0]
	}
	return &Entry{
		FP:            FingerprintOf(p),
		Workload:      p.Name,
		Suite:         p.Suite,
		Searcher:      "surrogate",
		Objective:     "throughput",
		Seed:          42,
		Reps:          3,
		Trials:        100,
		BudgetSeconds: 1200,
		Args:          args,
		Score:         score,
		BaselineScore: 20,
	}
}

func TestStoreAppendReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := workload.Names()
	for i, n := range names[:3] {
		if err := st.Append(testEntry(t, n, float64(10+i), "-XX:+UseG1GC")); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := st2.Entries()
	if len(got) != 3 {
		t.Fatalf("reopen replayed %d entries, want 3", len(got))
	}
	for i, e := range got {
		if e.Seq != int64(i) {
			t.Fatalf("entry %d has Seq %d", i, e.Seq)
		}
		if e.Workload != names[i] || len(e.Args) != 1 {
			t.Fatalf("entry %d round-trip mismatch: %+v", i, e)
		}
	}
	// Sequence numbering continues where the previous generation stopped.
	if err := st2.Append(testEntry(t, names[3], 9)); err != nil {
		t.Fatal(err)
	}
	if e := st2.Entries()[3]; e.Seq != 3 {
		t.Fatalf("post-reopen Seq = %d, want 3", e.Seq)
	}
}

func TestStoreSalvagesTornTail(t *testing.T) {
	dir := t.TempDir()
	tel := telemetry.New()
	st, err := Open(dir, tel)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append(testEntry(t, workload.Names()[i], float64(i+10))); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// A crash mid-append leaves a torn final record: chop bytes off the tail.
	path := filepath.Join(dir, storeFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, tel)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("salvaged %d entries, want 2", st2.Len())
	}
	if tel.Counter("transfer_store_salvaged_total").Value() != 1 {
		t.Fatal("salvage not counted")
	}
	// The salvaged store accepts appends, and the next sequence number does
	// not collide with the truncated record's.
	if err := st2.Append(testEntry(t, workload.Names()[4], 8)); err != nil {
		t.Fatal(err)
	}
	ents := st2.Entries()
	if ents[len(ents)-1].Seq != 2 {
		t.Fatalf("post-salvage Seq = %d, want 2", ents[len(ents)-1].Seq)
	}
}

func TestStoreCorruptHeaderMovedAside(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, storeFile)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("this is not a transfer store at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	st, err := Open(dir, tel)
	if err != nil {
		t.Fatalf("corrupt store should degrade to fresh, got %v", err)
	}
	defer st.Close()
	if st.Len() != 0 {
		t.Fatalf("fresh store has %d entries", st.Len())
	}
	if tel.Counter("transfer_store_corrupt_total").Value() != 1 {
		t.Fatal("corruption not counted")
	}
	// The bogus bytes are preserved for inspection, not destroyed.
	kept, err := os.ReadFile(path + ".corrupt")
	if err != nil || string(kept) != "this is not a transfer store at all" {
		t.Fatalf("original bytes not preserved: %v %q", err, kept)
	}
}

func TestStoreFutureVersionFailsClosed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, storeFile)
	future := frameImage(StoreVersion + 1)
	if err := os.WriteFile(path, future, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, nil)
	if !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("err = %v, want ErrFutureVersion", err)
	}
	// Fail closed means the newer build's file is untouched.
	after, rerr := os.ReadFile(path)
	if rerr != nil || !bytes.Equal(after, future) {
		t.Fatalf("future-version store was modified: %v", rerr)
	}
}

func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Same fingerprint + same config, improving scores: compaction keeps
	// only the best. A second config under the same fingerprint survives.
	n := workload.Names()[0]
	for _, sc := range []float64{15, 12, 18} {
		if err := st.Append(testEntry(t, n, sc, "-XX:+UseG1GC")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append(testEntry(t, n, 14, "-XX:+UseParallelGC")); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("compacted to %d entries, want 2", st.Len())
	}
	// The watermark keeps sequence numbers unique across the rewrite.
	if err := st.Append(testEntry(t, n, 11, "-XX:+UseSerialGC")); err != nil {
		t.Fatal(err)
	}
	ents := st.Entries()
	if last := ents[len(ents)-1].Seq; last != 4 {
		t.Fatalf("post-compaction Seq = %d, want 4", last)
	}
	st.Close()

	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 3 {
		t.Fatalf("reopen after compaction: %d entries, want 3", st2.Len())
	}
	var bestG1 *Entry
	for _, e := range st2.Entries() {
		if len(e.Args) == 1 && e.Args[0] == "-XX:+UseG1GC" {
			bestG1 = e
		}
	}
	if bestG1 == nil || bestG1.Score != 12 {
		t.Fatalf("compaction kept the wrong G1 entry: %+v", bestG1)
	}
}

// TestStoreCompactKeepsDistinctArgLists pins that compaction keys a
// configuration by its argument list rather than a rendering of it: one
// argument holding a space and the two arguments it splits into print
// alike under fmt.Sprint, but they are different configurations, and both
// must survive.
func TestStoreCompactKeepsDistinctArgLists(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := workload.Names()[0]
	joined := []string{"-XX:+UseG1GC -XX:+UseStringDeduplication"}
	split := []string{"-XX:+UseG1GC", "-XX:+UseStringDeduplication"}
	if err := st.Append(testEntry(t, n, 15, joined...)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testEntry(t, n, 12, split...)); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ents := st2.Entries()
	if len(ents) != 2 || !slices.Equal(ents[0].Args, joined) || ents[0].Score != 15 ||
		!slices.Equal(ents[1].Args, split) || ents[1].Score != 12 {
		t.Fatalf("compaction kept %d entries, want the joined (15) and the split (12) lists", len(ents))
	}
}

func TestStoreStaleCompactTempSwept(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	stale := filepath.Join(dir, storeFile+".compact123")
	if err := os.WriteFile(stale, []byte("leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	st2, err := Open(dir, tel)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale compaction temp not swept")
	}
	if tel.Counter("transfer_store_stale_temps_removed_total").Value() != 1 {
		t.Fatal("sweep not counted")
	}
}

// TestStoreHeaderFailureCountsSweptTemps: an open that fails on the
// store's header — garbage moved aside as .corrupt, or a future version
// refused — still removes the compaction temps a crash stranded, and
// counts them.
func TestStoreHeaderFailureCountsSweptTemps(t *testing.T) {
	for _, c := range []struct {
		name string
		file []byte
		err  error
	}{
		{"corrupt", []byte("this is not a transfer store at all"), nil},
		{"future", frameImage(StoreVersion + 1), ErrFutureVersion},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, storeFile), c.file, 0o644); err != nil {
				t.Fatal(err)
			}
			stale := filepath.Join(dir, storeFile+".compact77")
			if err := os.WriteFile(stale, []byte("leftover"), 0o644); err != nil {
				t.Fatal(err)
			}
			tel := telemetry.New()
			st, err := Open(dir, tel)
			if !errors.Is(err, c.err) {
				t.Fatalf("err = %v, want %v", err, c.err)
			}
			if err == nil {
				st.Close()
			}
			if _, err := os.Stat(stale); !os.IsNotExist(err) {
				t.Fatal("stale compaction temp not swept")
			}
			if got := tel.Counter("transfer_store_stale_temps_removed_total").Value(); got != 1 {
				t.Fatalf("transfer_store_stale_temps_removed_total = %d, want 1", got)
			}
		})
	}
}

func TestNearest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	names := workload.Names()
	target, ok := workload.ByName(names[0])
	if !ok {
		t.Fatal("no workloads")
	}
	fp := FingerprintOf(target)

	// Exact-match entries (two, different scores) plus other workloads.
	if err := st.Append(testEntry(t, names[0], 15, "-XX:+UseG1GC")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testEntry(t, names[0], 12, "-XX:+UseParallelGC")); err != nil {
		t.Fatal(err)
	}
	for _, n := range names[1:4] {
		if err := st.Append(testEntry(t, n, 20)); err != nil {
			t.Fatal(err)
		}
	}
	// An entry from a future fingerprint schema must never rank.
	futur := testEntry(t, names[4], 1)
	futur.FP.Version = FingerprintVersion + 1
	if err := st.Append(futur); err != nil {
		t.Fatal(err)
	}

	nbs := st.Nearest(fp, 3)
	if len(nbs) != 3 {
		t.Fatalf("got %d neighbours, want 3", len(nbs))
	}
	if nbs[0].Distance != 0 || nbs[0].Entry.Workload != names[0] {
		t.Fatalf("nearest is %+v, want exact match", nbs[0])
	}
	// One entry per fingerprint group, and the group is represented by its
	// best (lowest relative score) entry.
	if nbs[0].Entry.Score != 12 {
		t.Fatalf("group best score = %v, want 12", nbs[0].Entry.Score)
	}
	for i := 1; i < len(nbs); i++ {
		if nbs[i].Distance < nbs[i-1].Distance {
			t.Fatal("neighbours not sorted by distance")
		}
		if nbs[i].Entry.Workload == names[0] {
			t.Fatal("same fingerprint group returned twice")
		}
	}
	// Default k.
	if got := st.Nearest(fp, 0); len(got) != 3 {
		t.Fatalf("default k returned %d", len(got))
	}
}

// TestNearestMatchesSortTruncate holds Nearest's top-k selection to the
// reference it replaced, sorting every group and truncating to k: over
// random in-memory stores whose fingerprints sit on a coarse grid (so
// distances tie), whose workload names repeat, and which hold entries
// from a future fingerprint version, for k of 1, 3, 7, more than the
// number of groups, and the default (k ≤ 0 means 3). A nil store has no
// neighbours.
func TestNearestMatchesSortTruncate(t *testing.T) {
	if nb := (*Store)(nil).Nearest(Fingerprint{}, 3); nb != nil {
		t.Fatalf("nil store returned %d neighbours", len(nb))
	}
	reference := func(s *store, fp Fingerprint, k int) []Neighbor {
		if k <= 0 {
			k = 3
		}
		var all []Neighbor
		for _, e := range s.best {
			if d := fp.Distance(e.FP); !math.IsInf(d, 1) {
				all = append(all, Neighbor{Entry: e, Distance: d})
			}
		}
		sort.SliceStable(all, func(i, j int) bool {
			a, b := all[i], all[j]
			if a.Distance != b.Distance {
				return a.Distance < b.Distance
			}
			if a.Entry.Workload != b.Entry.Workload {
				return a.Entry.Workload < b.Entry.Workload
			}
			return a.Entry.Seq < b.Entry.Seq
		})
		return all[:min(k, len(all))]
	}
	rng := rand.New(rand.NewSource(1))
	// Sparse vectors over {0, ½, 1} put many groups at equal distances.
	grid := func() Fingerprint {
		fp := Fingerprint{Version: FingerprintVersion, F: make([]float64, len(features))}
		for i := range fp.F {
			if rng.Intn(8) == 0 {
				fp.F[i] = float64(1+rng.Intn(2)) / 2
			}
		}
		return fp
	}
	var ties, nameTies int
	for n := 0; n < 2000; n++ {
		s := &store{state: state{groups: make(map[string]int)}}
		pool := make([]Fingerprint, 1+rng.Intn(12))
		for i := range pool {
			pool[i] = grid()
			if rng.Intn(6) == 0 {
				pool[i].Version++
			}
		}
		for seq := range rng.Intn(40) {
			e := &Entry{
				Seq:      int64(seq),
				FP:       pool[rng.Intn(len(pool))],
				Workload: string(rune('a' + rng.Intn(3))),
				Score:    float64(10 + rng.Intn(3)), BaselineScore: 20,
			}
			s.entries = append(s.entries, e)
			s.index(e)
		}
		h := &Store{s: s}
		fp := grid()
		if rng.Intn(2) == 0 {
			fp = pool[rng.Intn(len(pool))]
		}
		for _, k := range []int{1, 3, 7, len(s.best) + 1, 0, -1} {
			got, want := h.Nearest(fp, k), reference(s, fp, k)
			if len(got) != len(want) {
				t.Fatalf("store %d, k=%d: %d neighbours, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Entry != want[i].Entry || got[i].Distance != want[i].Distance {
					t.Fatalf("store %d, k=%d: neighbour %d is %+v, want %+v", n, k, i, got[i], want[i])
				}
				if i > 0 && want[i].Distance == want[i-1].Distance {
					ties++
					if want[i].Entry.Workload == want[i-1].Entry.Workload {
						nameTies++
					}
				}
			}
		}
	}
	if ties < 500 || nameTies < 100 {
		t.Fatalf("the stores tied on distance %d times and on the name too %d times: too few to test the tie-breaks", ties, nameTies)
	}
}

func TestStoreNilSafe(t *testing.T) {
	var st *Store
	if st.Len() != 0 || st.Entries() != nil || st.Nearest(Fingerprint{}, 3) != nil {
		t.Fatal("nil store reads not safe")
	}
	if st.Append(&Entry{}) != nil || st.Compact() != nil || st.Close() != nil {
		t.Fatal("nil store writes not safe")
	}
}

// TestStoreSharedHandles pins that two handles on one directory are one
// store: each append gets its own sequence number and both survive a
// reopen, and an append through one handle after a compaction through the
// other lands in the compacted file rather than the unlinked one.
func TestStoreSharedHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := workload.Names()
	if err := a.Append(testEntry(t, names[0], 10, "-XX:+UseG1GC")); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(testEntry(t, names[1], 11, "-XX:+UseG1GC")); err != nil {
		t.Fatal(err)
	}
	if err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(testEntry(t, names[2], 12, "-XX:+UseG1GC")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("second Close of a handle:", err)
	}
	if err := a.Append(testEntry(t, names[3], 13)); err == nil {
		t.Fatal("append through a closed handle accepted")
	}
	if b.Len() != 3 {
		t.Fatalf("open handle sees %d entries after its sibling closed, want 3", b.Len())
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ents := st.Entries()
	if len(ents) != 3 {
		t.Fatalf("reopen replayed %d entries, want 3", len(ents))
	}
	for i, e := range ents {
		if e.Seq != int64(i) || e.Workload != names[i] {
			t.Fatalf("entry %d is %s with Seq %d, want %s with Seq %d", i, e.Workload, e.Seq, names[i], i)
		}
	}
}

// TestStoreConcurrentOpenAppendClose races sessions that each open the
// shared directory, append one winner and close, the way concurrent farm
// jobs do. Run it under -race -count=10 (make transfer-drill does). Every
// append must survive with a distinct sequence number.
func TestStoreConcurrentOpenAppendClose(t *testing.T) {
	dir := t.TempDir()
	const workers, rounds = 4, 3
	names := workload.Names()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				st, err := Open(dir, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if err := st.Append(testEntry(t, names[w], float64(10+r), "-XX:+UseG1GC")); err != nil {
					t.Error(err)
				}
				_ = st.Nearest(FingerprintOf(workload.All()[0]), 3)
				if err := st.Close(); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()

	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ents := st.Entries()
	if len(ents) != workers*rounds {
		t.Fatalf("reopen replayed %d entries, want %d", len(ents), workers*rounds)
	}
	for i, e := range ents {
		if e.Seq != int64(i) {
			t.Fatalf("entry %d has Seq %d: sequence numbers reissued or lost", i, e.Seq)
		}
	}
}

// TestStoreMigratesV1 opens a format v1 store with a watermark ahead of its
// entries and a torn final record: the valid prefix is rewritten as v2
// record for record, every entry reads back as v1 decoded it, lookups are
// unchanged, and the next append continues from the watermark.
func TestStoreMigratesV1(t *testing.T) {
	names := workload.Names()
	recs := []storeRecord{
		{Kind: "entry", Entry: testEntry(t, names[0], 12, "-XX:+UseG1GC")},
		{Kind: "mark", NextSeq: 9},
		{Kind: "entry", Entry: testEntry(t, names[1], 15, "-XX:+UseParallelGC", "-Xmx2g")},
		{Kind: "entry", Entry: testEntry(t, names[0], 11, "-XX:+UseSerialGC")},
		{Kind: "entry", Entry: testEntry(t, names[2], 9)},
	}
	for i, r := range recs {
		if r.Entry != nil {
			r.Entry.Seq = int64(2 * i)
		}
	}
	img := v1Image(t, recs...)
	dir := t.TempDir()
	path := filepath.Join(dir, storeFile)
	if err := os.WriteFile(path, img[:len(img)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	st, err := Open(dir, tel)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Counter("transfer_store_migrated_total").Value() != 1 ||
		tel.Counter("transfer_store_salvaged_total").Value() != 1 {
		t.Fatal("migration or salvage of the torn tail not counted")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := v2Image(t, recs[:4]...); !bytes.Equal(got, want) {
		t.Fatal("migrated file is not the v2 image of the valid v1 prefix")
	}
	ents := st.Entries()
	if len(ents) != 3 {
		t.Fatalf("migrated store has %d entries, want 3", len(ents))
	}
	for i, j := range []int{0, 2, 3} {
		if !sameEntry(ents[i], recs[j].Entry) {
			t.Fatalf("entry %d changed in migration:\n%+v\n%+v", i, ents[i], recs[j].Entry)
		}
	}
	nb := st.Nearest(recs[0].Entry.FP, 5)
	if len(nb) != 2 || nb[0].Entry.Score != 11 || nb[1].Entry.Workload != names[1] {
		t.Fatalf("nearest after migration: %+v", nb)
	}
	if err := st.Append(testEntry(t, names[3], 10)); err != nil {
		t.Fatal(err)
	}
	if last := st.Entries()[3]; last.Seq != 9 {
		t.Fatalf("append after migration got Seq %d, want the watermark 9", last.Seq)
	}
	st.Close()
}

// TestStoreRewritesKeepMode: a store keeps the 0644 a fresh store gets
// through a compaction and through a v1 migration, both of which replace
// the file with a temp created 0600.
func TestStoreRewritesKeepMode(t *testing.T) {
	mode := func(dir string) os.FileMode {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, storeFile))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode().Perm()
	}
	compacted := t.TempDir()
	st, err := Open(compacted, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testEntry(t, workload.Names()[0], 12, "-XX:+UseG1GC")); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if got := mode(compacted); got != 0o644 {
		t.Fatalf("compacted store has mode %v, want -rw-r--r--", got)
	}

	migrated := t.TempDir()
	img := v1Image(t, storeRecord{Kind: "entry", Entry: testEntry(t, workload.Names()[1], 9)})
	if err := os.WriteFile(filepath.Join(migrated, storeFile), img, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = Open(migrated, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if got := mode(migrated); got != 0o644 {
		t.Fatalf("migrated store has mode %v, want -rw-r--r--", got)
	}
}

// TestStoreCutsUndecodableRecord: a CRC-valid record that does not decode
// ends the valid prefix as a torn frame does. The file is cut back to the
// records before it, and one open that finds both counts one salvage.
func TestStoreCutsUndecodableRecord(t *testing.T) {
	names := workload.Names()
	good := storeRecord{Kind: "entry", Entry: testEntry(t, names[0], 12, "-XX:+UseG1GC")}
	later := storeRecord{Kind: "entry", Entry: testEntry(t, names[1], 11)}
	var payloads [][]byte
	for _, r := range []*storeRecord{&good, &later} {
		p, err := appendRecord(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	first := frameImage(StoreVersion, payloads[0])
	img := frameImage(StoreVersion, payloads[0], []byte{0x7f, 'x'}, payloads[1])
	dir := t.TempDir()
	path := filepath.Join(dir, storeFile)
	if err := os.WriteFile(path, img[:len(img)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	st, err := Open(dir, tel)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 1 || !sameEntry(st.Entries()[0], good.Entry) {
		t.Fatalf("store kept %d entries, want the one before the undecodable record", st.Len())
	}
	if got := tel.Counter("transfer_store_salvaged_total").Value(); got != 1 {
		t.Fatalf("transfer_store_salvaged_total = %d, want 1", got)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, first) {
		t.Fatalf("file not cut back to the decodable prefix (%v)", err)
	}
}

// forgetResident drops the resident store, so the next Open of its
// directory reads the whole file, as the first Open in a process does.
func forgetResident() {
	openStores.mu.Lock()
	defer openStores.mu.Unlock()
	openStores.resident = nil
}
