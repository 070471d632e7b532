// Package transfer is the tuner's cross-workload knowledge base: a durable
// store of what previous tuning sessions learned, indexed by a behavioural
// fingerprint of the workload, plus the warm-start machinery that turns
// stored results into search priors for a new session.
//
// The paper tunes every workload from scratch; OneStopTuner and the
// multiple-phase-learning line of work show that a search seeded with the
// winners of *similar* workloads reaches the same score in a fraction of the
// budget. This package supplies the three missing pieces:
//
//   - Fingerprint: a deterministic, versioned feature vector derived from a
//     workload.Profile, with a documented weighted distance metric, so
//     "similar workload" is a number rather than a vibe.
//   - Store: an append-only, crash-safe on-disk store of (fingerprint,
//     best flag configuration, score) records on a checkpoint.Journal —
//     fsynced appends, salvaged-tail recovery, atomic compaction behind a
//     sequence watermark.
//   - Priors: nearest-fingerprint lookup plus validation/repair of stored
//     configurations against the current flag registry, producing the
//     ready-to-inject warm-start proposals core.WarmStart consumes.
//
// Store writes happen only on the tuning controller (never on evald
// measurement nodes), and a session with transfer disabled takes no code
// path through this package at all — which is what keeps fixed-seed
// sessions byte-identical with transfer off, in-process or distributed.
// See docs/TRANSFER.md.
package transfer

import (
	"encoding/binary"
	"math"
	"strconv"

	"repro/internal/workload"
)

// FingerprintVersion is the current fingerprint schema version. Distances
// across versions are undefined (the feature list changed), so Nearest
// treats entries with a different version as infinitely far — old store
// records degrade to "no neighbour", never to a wrong one.
const FingerprintVersion = 1

// feature is one dimension of the fingerprint: a name (stable, documented
// in docs/TRANSFER.md), a distance weight, and the extraction from a
// profile. Extractions normalize into roughly [0,1] — fractions pass
// through, unbounded magnitudes are log-compressed over their plausible
// range — so the weights, not the units, decide what similarity means.
type feature struct {
	name    string
	weight  float64
	extract func(p *workload.Profile) float64
}

// log01 compresses v ≥ 0 into [0,1] given the log10 span of its plausible
// range: log01(v, s) = log10(1+v)/s, clamped at 1.
func log01(v, span float64) float64 {
	if v < 0 {
		v = 0
	}
	x := math.Log10(1+v) / span
	if x > 1 {
		return 1
	}
	return x
}

// features is the fingerprint schema: order defines vector indices, so new
// features append and bump FingerprintVersion. GC-pressure features (the
// allocation rate, live-set shape, and object-lifetime profile that decide
// collector and heap-geometry flags) carry the heaviest weights; JIT-shape
// features sit in the middle; second-order intensities trail.
var features = []feature{
	{"base_seconds", 1.0, func(p *workload.Profile) float64 { return log01(p.BaseSeconds, 2) }},
	{"startup_fraction", 1.0, func(p *workload.Profile) float64 { return p.StartupFraction }},
	{"warmup_frac", 1.0, func(p *workload.Profile) float64 {
		if p.BaseSeconds <= 0 {
			return 0
		}
		x := p.WarmupWork / p.BaseSeconds
		if x > 1 {
			return 1
		}
		return x
	}},
	{"hot_methods", 0.5, func(p *workload.Profile) float64 { return log01(float64(p.HotMethods), 4) }},
	{"code_kb_per_method", 0.25, func(p *workload.Profile) float64 { return p.CodeKBPerMethod / 3 }},
	{"call_intensity", 0.5, func(p *workload.Profile) float64 { return p.CallIntensity }},
	{"loop_intensity", 0.5, func(p *workload.Profile) float64 { return p.LoopIntensity }},
	{"escape_frac", 0.25, func(p *workload.Profile) float64 { return p.EscapeFrac }},
	{"alloc_rate_mbps", 1.5, func(p *workload.Profile) float64 { return log01(p.AllocRateMBps, 2.5) }},
	{"live_set_mb", 1.5, func(p *workload.Profile) float64 { return log01(p.LiveSetMB, 2.5) }},
	{"class_meta_mb", 0.75, func(p *workload.Profile) float64 { return log01(p.ClassMetaMB, 2) }},
	{"short_lived_frac", 1.25, func(p *workload.Profile) float64 { return p.ShortLivedFrac }},
	{"mid_lived_frac", 1.0, func(p *workload.Profile) float64 { return p.MidLivedFrac }},
	{"mid_life_rounds", 0.5, func(p *workload.Profile) float64 { return p.MidLifeRounds / 8 }},
	{"eden_half_life_mb", 0.75, func(p *workload.Profile) float64 { return log01(p.EdenHalfLifeMB, 2.5) }},
	{"large_object_frac", 0.5, func(p *workload.Profile) float64 { return p.LargeObjectFrac }},
	{"pointer_intensity", 0.5, func(p *workload.Profile) float64 { return p.PointerIntensity }},
	{"ref_intensity", 0.25, func(p *workload.Profile) float64 { return p.RefIntensity }},
	{"string_intensity", 0.25, func(p *workload.Profile) float64 { return p.StringIntensity }},
	{"sync_intensity", 0.5, func(p *workload.Profile) float64 { return p.SyncIntensity }},
	{"lock_contention", 0.5, func(p *workload.Profile) float64 { return p.LockContention }},
	{"app_threads", 0.75, func(p *workload.Profile) float64 { return log01(float64(p.AppThreads), 1.5) }},
	{"explicit_gc_calls", 0.5, func(p *workload.Profile) float64 {
		x := float64(p.ExplicitGCCalls) / 10
		if x > 1 {
			return 1
		}
		return x
	}},
}

// FeatureNames returns the fingerprint dimensions in vector order — the
// schema the docs and the workload guard tests pin down.
func FeatureNames() []string {
	out := make([]string, len(features))
	for i, f := range features {
		out[i] = f.name
	}
	return out
}

// Fingerprint is a workload's behavioural feature vector. Equal profiles
// produce equal fingerprints (the extraction is pure arithmetic over the
// profile's value fields), which is what makes fingerprinting of generated
// workloads deterministic under a fixed generator seed.
type Fingerprint struct {
	// Version is the schema revision that produced F.
	Version int `json:"v"`
	// F holds one normalized value per feature, in FeatureNames order.
	F []float64 `json:"f"`
}

// FingerprintOf derives the profile's fingerprint under the current schema.
func FingerprintOf(p *workload.Profile) Fingerprint {
	fp := Fingerprint{Version: FingerprintVersion, F: make([]float64, len(features))}
	for i, f := range features {
		fp.F[i] = f.extract(p)
	}
	return fp
}

// Key renders the fingerprint as a compact stable string: the version,
// then each value at 9 significant digits. Store entries whose Keys are
// equal describe the same workload behaviour and share a group. Warm
// checkpoints record the Key, so its bytes never change.
func (fp Fingerprint) Key() string {
	dst := strconv.AppendInt([]byte("v"), int64(fp.Version), 10)
	dst = append(dst, ':')
	for i, v := range fp.F {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'g', 9, 64)
	}
	return string(dst)
}

// The group key is Key's grouping without its float formatting, which
// costs most of a store open. Key prints a value as its sign and its 9
// significant digits, rounded half to even, so two values print alike
// exactly when they share a class below and, if nonzero and finite, the
// same 9 digits and decimal exponent. The group key holds those per
// feature: a class byte, the digits as a big-endian uint32 (for a
// non-finite value, which of NaN, +Inf and -Inf it is) and the exponent as
// a big-endian int16.
const (
	classPosZero byte = iota
	classNegZero
	classPos
	classNeg
	classNonFinite
)

// appendGroupKey appends fp's group key to dst: the version and the feature
// count as big-endian uint64s, then 7 bytes per feature. The fixed widths
// make the key injective and no key a prefix of another, and two
// fingerprints have equal group keys exactly when their Keys are equal.
func (fp Fingerprint) appendGroupKey(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(fp.Version))
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(fp.F)))
	for _, v := range fp.F {
		var class byte
		var m uint64
		var exp int
		switch {
		case v > 0 && v <= math.MaxFloat64:
			class = classPos
			m, exp = decimal9(v)
		case v < 0 && v >= -math.MaxFloat64:
			class = classNeg
			m, exp = decimal9(-v)
		case v == 0 && math.Signbit(v):
			class = classNegZero
		case v == 0:
			class = classPosZero
		case v > 0:
			class, m = classNonFinite, 1
		case v < 0:
			class, m = classNonFinite, 2
		default:
			class = classNonFinite // NaN
		}
		dst = append(dst, class)
		dst = binary.BigEndian.AppendUint32(dst, uint32(m))
		dst = binary.BigEndian.AppendUint16(dst, uint16(int16(exp)))
	}
	return dst
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// decimal9 returns the 9 significant digits of a positive finite v as an
// integer m in [1e8, 1e9) and its decimal exponent: exactly what
// strconv.AppendFloat(v, 'e', 8, 64) prints, v ≈ m·10^(exp−8).
//
// It estimates the decade from v's binary exponent, scales v by one power
// of ten that a float64 holds exactly, and rounds in integer arithmetic.
// The one rounding of the scale leaves the scaled value, below 1e9 < 2³⁰,
// within 2⁻²⁴ of the exact product, so rounding it gives the right digits
// unless the product lies within 1e-6 of a tie. Those values, and those
// whose scale needs a power of ten past 10^22, take decimal9Slow.
func decimal9(v float64) (m uint64, exp int) {
	// A normal v lies in [2^e2, 2^(e2+1)), and 78913/2^18 is log10(2)
	// less 8e-7, so this is log10(v)'s floor or off by one. A subnormal v
	// reads as e2 = -1023, whose scale needs strconv anyway.
	e2 := int(math.Float64bits(v)>>52) - 1023
	exp = e2 * 78913 >> 18
	x, ok := scale10(v, 8-exp)
	switch {
	case ok && x >= 1e9:
		exp++
		x, ok = scale10(v, 8-exp)
	case ok && x < 1e8:
		exp--
		x, ok = scale10(v, 8-exp)
	}
	if !ok || x < 1e8 || x >= 1e9 {
		return decimal9Slow(v)
	}
	m = uint64(x)
	switch frac := x - float64(m); {
	case math.Abs(frac-0.5) < 1e-6:
		return decimal9Slow(v)
	case frac > 0.5:
		m++
	}
	if m == 1e9 { // 999999999.5 and up round into the next decade
		m, exp = 1e8, exp+1
	}
	return m, exp
}

// scale10 returns v·10^p, rounded once, if 10^|p| is in pow10. The
// conversion keeps the compiler from fusing the product into a later
// operation.
func scale10(v float64, p int) (float64, bool) {
	switch {
	case 0 <= p && p < len(pow10):
		return float64(v * pow10[p]), true
	case -len(pow10) < p && p < 0:
		return float64(v / pow10[-p]), true
	}
	return 0, false
}

// decimal9Slow is decimal9 read off strconv's output, "d.dddddddde±dd"
// with two or three exponent digits.
func decimal9Slow(v float64) (m uint64, exp int) {
	var buf [24]byte
	b := strconv.AppendFloat(buf[:0], v, 'e', 8, 64)
	m = uint64(b[0] - '0')
	for _, c := range b[2:10] {
		m = m*10 + uint64(c-'0')
	}
	for _, c := range b[12:] {
		exp = exp*10 + int(c-'0')
	}
	if b[11] == '-' {
		exp = -exp
	}
	return m, exp
}

// Distance is the similarity metric between two fingerprints: the weighted
// root-mean-square difference over the feature vector,
//
//	d(a,b) = sqrt( Σᵢ wᵢ·(aᵢ−bᵢ)² / Σᵢ wᵢ )
//
// with the weights of the features table. Because every feature is
// normalized into [0,1], d is roughly in [0,1] too: 0 is an identical
// behavioural profile, and anything past ~0.3 is a genuinely different kind
// of workload. Fingerprints from different schema versions (or malformed
// vectors) are incomparable and return +Inf, so corrupted or outdated store
// entries can never rank as a nearest neighbour.
func (fp Fingerprint) Distance(o Fingerprint) float64 {
	if fp.Version != o.Version || len(fp.F) != len(features) || len(o.F) != len(features) {
		return math.Inf(1)
	}
	var num, den float64
	for i, f := range features {
		d := fp.F[i] - o.F[i]
		num += f.weight * d * d
		den += f.weight
	}
	return math.Sqrt(num / den)
}
