package jvmsim

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/flags"
	"repro/internal/flags/flagstest"
	"repro/internal/workload"
)

// noiseFactorFNV is the noise formula as it was first written, over
// hash/fnv: the reference the inline hash must reproduce bit for bit, or
// every fixed-seed session would measure differently.
func noiseFactorFNV(configKey, workload string, rep int, relStdDev float64) float64 {
	if relStdDev <= 0 {
		return 1
	}
	h := fnv.New64a()
	h.Write([]byte(configKey))
	h.Write([]byte{0})
	h.Write([]byte(workload))
	h.Write([]byte{0})
	var buf [8]byte
	v := uint64(rep)
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	u := h.Sum64()
	u1 := float64(u>>11) / float64(1<<53)
	h.Write([]byte{1})
	u2 := float64(h.Sum64()>>11) / float64(1<<53)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	if z > 3 {
		z = 3
	}
	if z < -3 {
		z = -3
	}
	return math.Exp(relStdDev * z)
}

// TestNoiseMatchesHashFNV: the inline FNV-1a gives the reference's
// factor, bit for bit, for keys of 0–512 arbitrary bytes, workload names
// (empty included), reps negative, zero and past 2^32, and noise levels
// including zero, negative and NaN (which, not being <= 0, yields NaN in
// both).
func TestNoiseMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	levels := []float64{DefaultNoise, 0.3, 1, 0, -1, math.NaN()}
	reps := func() int {
		switch rng.Intn(5) {
		case 0:
			return -1 - rng.Intn(1<<20)
		case 1:
			return 0
		case 2:
			return 1<<32 + rng.Intn(1<<30)
		case 3:
			return math.MinInt64 + rng.Intn(4)
		}
		return rng.Intn(1 << 16)
	}
	for trial := 0; trial < 5000; trial++ {
		key := make([]byte, rng.Intn(513))
		rng.Read(key)
		wl := make([]byte, rng.Intn(4)*rng.Intn(12))
		rng.Read(wl)
		rep, sd := reps(), levels[rng.Intn(len(levels))]
		want := noiseFactorFNV(string(key), string(wl), rep, sd)
		got := noiseFactor(string(key), string(wl), rep, sd)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("key %q workload %q rep %d noise %v: factor %v (%#x), hash/fnv %v (%#x)",
				key, wl, rep, sd, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestRunRepsMatchesRun holds RunReps to its doc: every repetition of a
// batch equals Run at that rep index, bit for bit, over proposal-shaped
// and hand-set configurations, failing ones included, on built-in and
// generated profiles, at the default noise and at zero.
func TestRunRepsMatchesRun(t *testing.T) {
	reg := flags.NewRegistry()
	var cfgs []*flags.Config
	for seed := int64(1); seed <= 12; seed++ {
		cfgs = append(cfgs, flagstest.Proposal(reg, seed))
	}
	oom := flags.NewConfig(reg)
	oom.SetInt("MaxHeapSize", 16<<20)
	cfgs = append(cfgs, flags.NewConfig(reg), oom)
	var profiles []*workload.Profile
	for _, name := range []string{"h2", "fop", "xalan"} {
		p, _ := workload.ByName(name)
		profiles = append(profiles, p)
	}
	gen, err := workload.Generate(workload.GenServer, 5)
	if err != nil {
		t.Fatal(err)
	}
	profiles = append(profiles, gen)
	failed := 0
	for _, noise := range []float64{DefaultNoise, 0} {
		s := New()
		s.NoiseRelStdDev = noise
		for _, c := range cfgs {
			for _, p := range profiles {
				for _, base := range []int{0, 7, -3, 1 << 33} {
					batch := s.RunReps(c, p, base, 4, nil)
					for i, got := range batch {
						want := s.Run(c, p, base+i)
						if got != want || math.Float64bits(got.WallSeconds) != math.Float64bits(want.WallSeconds) {
							t.Fatalf("%s on %s, rep %d: RunReps %+v, Run %+v", c, p.Name, base+i, got, want)
						}
						if got.Failed {
							failed++
						}
					}
				}
			}
		}
	}
	if failed == 0 {
		t.Fatal("no configuration failed: the failing path went unchecked")
	}
}
