package jvmsim

import "math"

// noiseFactor returns a deterministic multiplicative noise term for one
// (configuration, workload, repetition) triple: lognormal-ish with the given
// relative standard deviation. The same triple always observes the same
// noise, so experiments replay exactly; different repetitions of the same
// configuration observe different noise, so the tuner faces real
// measurement uncertainty.
func noiseFactor(configKey, workload string, rep int, relStdDev float64) float64 {
	return newNoisePrefix(configKey, workload).factor(rep, relStdDev)
}

// The 64-bit FNV-1a parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// noisePrefix is the 64-bit FNV-1a state after the bytes that every
// repetition of one configuration on one workload hashes first: the key,
// a zero byte, the workload name and another zero byte. A batch of
// repetitions hashes them once and finishes each rep from here.
type noisePrefix uint64

func newNoisePrefix(configKey, workload string) noisePrefix {
	h := uint64(fnvOffset64)
	for i := 0; i < len(configKey); i++ {
		h = (h ^ uint64(configKey[i])) * fnvPrime64
	}
	h *= fnvPrime64
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * fnvPrime64
	}
	return noisePrefix(h * fnvPrime64)
}

// factor is noiseFactor for repetition rep: the hash goes on over the
// rep's 8 little-endian bytes for the first uniform, and over one more
// byte, 1, for the second.
func (p noisePrefix) factor(rep int, relStdDev float64) float64 {
	if relStdDev <= 0 {
		return 1
	}
	u, v := uint64(p), uint64(rep)
	for i := 0; i < 8; i++ {
		u = (u ^ (v >> (8 * i) & 0xff)) * fnvPrime64
	}

	// Two U(0,1) draws from the hash, Box–Muller to a standard normal.
	u1 := float64(u>>11) / float64(1<<53)
	u2 := float64(((u^1)*fnvPrime64)>>11) / float64(1<<53)
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	// Clamp to ±3σ so a single unlucky draw cannot dominate a tuning run.
	if z > 3 {
		z = 3
	}
	if z < -3 {
		z = -3
	}
	return math.Exp(relStdDev * z)
}

// pow is math.Pow, aliased so model files read compactly.
func pow(x, y float64) float64 { return math.Pow(x, y) }

// clamp limits v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// expDecay returns exp(-x), guarding against negative x.
func expDecay(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Exp(-x)
}
