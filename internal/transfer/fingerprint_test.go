package transfer

import (
	"math"
	"testing"

	"repro/internal/workload"
)

func TestFingerprintDeterministic(t *testing.T) {
	for _, name := range workload.Names() {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s: not found", name)
		}
		a, b := FingerprintOf(p), FingerprintOf(p)
		if a.Key() != b.Key() {
			t.Fatalf("%s: fingerprint not deterministic: %q vs %q", name, a.Key(), b.Key())
		}
		if a.Version != FingerprintVersion || len(a.F) != len(FeatureNames()) {
			t.Fatalf("%s: fingerprint shape %d/%d", name, a.Version, len(a.F))
		}
	}
}

func TestFingerprintValuesBounded(t *testing.T) {
	check := func(name string, p *workload.Profile) {
		fp := FingerprintOf(p)
		for i, v := range fp.F {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1.0001 {
				t.Errorf("%s: feature %s = %v out of [0,1]", name, FeatureNames()[i], v)
			}
		}
	}
	for _, p := range workload.All() {
		check(p.Name, p)
	}
	for _, kind := range workload.GenKinds() {
		for seed := int64(0); seed < 20; seed++ {
			p, err := workload.Generate(kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			check(p.Name, p)
		}
	}
}

func TestFingerprintDistance(t *testing.T) {
	all := workload.All()
	a := FingerprintOf(all[0])
	b := FingerprintOf(all[len(all)-1])
	if d := a.Distance(a); d != 0 {
		t.Fatalf("self-distance = %v, want 0", d)
	}
	if d1, d2 := a.Distance(b), b.Distance(a); d1 != d2 {
		t.Fatalf("distance not symmetric: %v vs %v", d1, d2)
	}
	if d := a.Distance(b); d <= 0 || d > 1.5 {
		t.Fatalf("cross-workload distance = %v, want in (0, 1.5]", d)
	}

	// Across schema versions the metric is undefined: +Inf, never a guess.
	old := b
	old.Version = FingerprintVersion + 1
	if d := a.Distance(old); !math.IsInf(d, 1) {
		t.Fatalf("cross-version distance = %v, want +Inf", d)
	}
	short := Fingerprint{Version: FingerprintVersion, F: []float64{0.5}}
	if d := a.Distance(short); !math.IsInf(d, 1) {
		t.Fatalf("malformed-vector distance = %v, want +Inf", d)
	}
}

// TestFingerprintSeparatesFamilies checks the metric does its one job:
// same-family generated workloads sit closer to each other than to a
// different family's profiles.
func TestFingerprintSeparatesFamilies(t *testing.T) {
	server1, err := workload.Generate(workload.GenServer, 1)
	if err != nil {
		t.Fatal(err)
	}
	server2, err := workload.Generate(workload.GenServer, 2)
	if err != nil {
		t.Fatal(err)
	}
	startup, err := workload.Generate(workload.GenStartup, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs1, fs2, fst := FingerprintOf(server1), FingerprintOf(server2), FingerprintOf(startup)
	within := fs1.Distance(fs2)
	across := fs1.Distance(fst)
	if within >= across {
		t.Fatalf("within-family distance %v not below cross-family %v", within, across)
	}
}

func TestFeatureNamesUniqueAndStable(t *testing.T) {
	names := FeatureNames()
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
	// The schema is load-bearing for on-disk compatibility: index 0 and the
	// vector length may only change together with FingerprintVersion.
	if names[0] != "base_seconds" || len(names) != 23 {
		t.Fatalf("fingerprint schema drifted (first=%q, len=%d) — bump FingerprintVersion", names[0], len(names))
	}
}

// TestFingerprintKeyGolden pins Key's bytes to what the build before the
// binary group key printed. Warm checkpoints record the Key and a resume
// compares it, so the group key's fast path must never reach Key, or
// checkpoints written by older builds would stop resuming.
func TestFingerprintKeyGolden(t *testing.T) {
	h2, ok := workload.ByName("h2")
	if !ok {
		t.Fatal("h2: not found")
	}
	crafted := Fingerprint{Version: 1, F: []float64{
		0, math.Copysign(0, -1), 1, 5e-324, 0.9999999995,
		math.Nextafter(1234567885, math.Inf(1)), // one ulp above a tie
		1234567885,                              // a tie, rounded to even
		math.Nextafter(123456789.5, 0),          // one ulp below a tie
		999999999.5,                             // a tie that rounds into the next decade
		-0.25, math.MaxFloat64,
	}}
	for _, c := range []struct {
		fp   Fingerprint
		want string
	}{
		{FingerprintOf(h2), "v1:0.806391928,0.1,0.02,0.813878428,0.6,0.6,0.2,0.2,0.840148218,0.95135916,0.77815125,0.8,0.12,0.5,0.714131934,0.05,0.7,0.15,0.3,0.5,0.15,0.465980003,0"},
		{crafted, "v1:0,-0,1,4.94065646e-324,0.999999999,1.23456789e+09,1.23456788e+09,123456789,1e+09,-0.25,1.79769313e+308"},
	} {
		if got := c.fp.Key(); got != c.want {
			t.Errorf("Key() = %q, want %q", got, c.want)
		}
	}
}
