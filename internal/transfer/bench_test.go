package transfer

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/flags"
	"repro/internal/workload"
)

// BenchmarkFingerprint is the per-session cost of deriving a workload's
// feature vector — it runs once per tuning session, so it only has to stay
// trivially cheap.
func BenchmarkFingerprint(b *testing.B) {
	p := workload.All()[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = FingerprintOf(p)
	}
}

// BenchmarkStoreLookup is the warm-start query against a populated store:
// group, rank, and return the nearest fingerprints. Runs once per session
// over an in-memory entry list (the disk was paid at Open).
func BenchmarkStoreLookup(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for _, kind := range workload.GenKinds() {
		for seed := int64(0); seed < 64; seed++ {
			p, err := workload.Generate(kind, seed)
			if err != nil {
				b.Fatal(err)
			}
			e := &Entry{
				FP:            FingerprintOf(p),
				Workload:      p.Name,
				Searcher:      "surrogate",
				Objective:     "throughput",
				Args:          []string{"-XX:+UseG1GC", fmt.Sprintf("-XX:MaxGCPauseMillis=%d", 10+seed)},
				Score:         15,
				BaselineScore: 20,
			}
			if err := st.Append(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	target := workload.All()[0]
	fp := FingerprintOf(target)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if nbs := st.Nearest(fp, 3); len(nbs) != 3 {
			b.Fatal("lookup returned wrong k")
		}
	}
}

// benchStore writes a store of 1000 entries for generated workloads, the
// durable-warm benchmark's count. Each entry carries one of 24 valid
// winning configurations that assign 7 to 362 flags at random values and
// are stored in their canonical form: 4 to 225 args, mean ~86. That is
// wider than the durable-warm store, whose hierarchical winners ship
// about ten args each, and about the width of random-searcher winners.
// It returns the store directory.
func benchStore(b *testing.B) string {
	b.Helper()
	reg := flags.NewRegistry()
	// Collector selection and heap geometry stay at their defaults so every
	// winner passes hierarchy validation; UseG1GC is set on top.
	fixed := map[string]bool{
		"UseSerialGC": true, "UseParallelGC": true, "UseConcMarkSweepGC": true, "UseG1GC": true,
		"UseParNewGC": true, "MaxHeapSize": true, "InitialHeapSize": true, "NewSize": true,
		"MaxNewSize": true, "InitialCodeCacheSize": true, "ReservedCodeCacheSize": true,
		"PermSize": true, "MaxPermSize": true,
	}
	var free []string
	for _, n := range reg.Names() {
		if !fixed[n] {
			free = append(free, n)
		}
	}
	rng := rand.New(rand.NewSource(1))
	winners := make([][]string, 24)
	for i := range winners {
		width := 7 + int(355*math.Pow(float64(i)/23, 1.6))
		cfg := flags.NewConfig(reg)
		cfg.SetBool("UseG1GC", true)
		for _, j := range rng.Perm(len(free))[:width-1] {
			f := reg.Lookup(free[j])
			if err := cfg.Set(f.Name, flags.SampleValue(f, rng)); err != nil {
				b.Fatal(err)
			}
		}
		winners[i] = cfg.ExplicitArgs()
	}
	kinds := workload.GenKinds()
	payloads := make([][]byte, 1000)
	for i := range payloads {
		p, err := workload.Generate(kinds[i%len(kinds)], rng.Int63n(1<<31))
		if err != nil {
			b.Fatal(err)
		}
		payload, err := appendEntry(nil, &Entry{
			Seq: int64(i), FP: FingerprintOf(p), Workload: p.Name, Suite: p.Suite,
			Searcher: "hierarchical", Objective: "throughput", Seed: int64(i), Reps: 3, Trials: 150,
			BudgetSeconds: 12000, Args: winners[rng.Intn(len(winners))],
			Score: 10 + rng.Float64()*10, BaselineScore: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		payloads[i] = payload
	}
	dir := b.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storeFile), frameImage(StoreVersion, payloads...), 0o644); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkStoreOpen is a cold store open at the durable-warm benchmark's
// entry count (see benchStore for the entry widths): read, CRC-check and
// decode 1000 entries and build the fingerprint index. Each iteration
// forgets the resident store its Close left, so every Open reads the
// whole file again.
func BenchmarkStoreOpen(b *testing.B) {
	dir := benchStore(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := Open(dir, nil)
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() != 1000 {
			b.Fatal("store lost entries")
		}
		st.Close()
		forgetResident()
	}
}

// BenchmarkStoreReopen is a durable-warm session's use of the same store:
// append one winner, close, truncate the file back to the template it was
// and reopen it. The template is the bytes the open before the loop read,
// so the reopen compares the file with the resident image and decodes
// nothing.
func BenchmarkStoreReopen(b *testing.B) {
	dir := benchStore(b)
	path := filepath.Join(dir, storeFile)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	e := st.Entries()[0]
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := st.Append(e); err != nil {
			b.Fatal(err)
		}
		st.Close()
		if err := os.Truncate(path, fi.Size()); err != nil {
			b.Fatal(err)
		}
		if st, err = Open(dir, nil); err != nil {
			b.Fatal(err)
		}
		if st.Len() != 1000 {
			b.Fatal("store lost entries")
		}
	}
	b.StopTimer()
	st.Close()
}

// BenchmarkPriors is a warm start's prior query at the same scale: the
// three nearest groups, each winner repaired against the live registry.
func BenchmarkPriors(b *testing.B) {
	st, err := Open(benchStore(b), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	reg := flags.NewRegistry()
	fp := FingerprintOf(workload.All()[0])
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(Priors(st, reg, fp, 3)) == 0 {
			b.Fatal("no priors")
		}
	}
}
