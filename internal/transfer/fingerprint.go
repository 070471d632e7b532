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

// Key renders the fingerprint as a compact stable string, used to group
// store entries that describe the same workload behaviour.
func (fp Fingerprint) Key() string {
	return string(fp.appendKey(nil))
}

// appendKey appends Key's rendering to dst.
func (fp Fingerprint) appendKey(dst []byte) []byte {
	dst = append(dst, 'v')
	dst = strconv.AppendInt(dst, int64(fp.Version), 10)
	dst = append(dst, ':')
	for i, v := range fp.F {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'g', 9, 64)
	}
	return dst
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
