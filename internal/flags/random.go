package flags

import (
	"math"
	"math/rand"
)

// SampleValue draws a uniform random value from f's domain. Int flags marked
// LogScale are drawn log-uniformly (so 128 MB and 4 GB heaps are equally
// likely), then snapped to the flag's Step granularity. Int flags with a
// zero minimum and LogScale sample zero (the "ergonomic/auto" sentinel) with
// small probability, since log scales cannot reach it.
func SampleValue(f *Flag, rng *rand.Rand) Value {
	switch f.Type {
	case Bool:
		return BoolValue(rng.Intn(2) == 0)
	case Enum:
		return EnumValue(rng.Intn(len(f.Choices)))
	case Int:
		return IntValue(sampleInt(f, rng))
	}
	return f.Default
}

func sampleInt(f *Flag, rng *rand.Rand) int64 {
	min, max := f.Min, f.Max
	if min == max {
		return min
	}
	if f.LogScale {
		lo := min
		if lo <= 0 {
			// Reserve 10% of draws for the sentinel/zero region, sample the
			// rest log-uniformly from a positive floor.
			if rng.Float64() < 0.10 {
				return min
			}
			lo = f.step()
		}
		lmin, lmax := math.Log(float64(lo)), math.Log(float64(max))
		v := int64(math.Exp(lmin + rng.Float64()*(lmax-lmin)))
		return snap(f, v)
	}
	span := (max - min) / f.step()
	return min + rng.Int63n(span+1)*f.step()
}

// snap rounds v to the flag's step grid and clamps into the domain.
func snap(f *Flag, v int64) int64 {
	s := f.step()
	v = (v / s) * s
	if v < f.Min {
		v = f.Min
	}
	if v > f.Max {
		v = f.Max
	}
	return v
}

// NeighborValue returns a value near current in f's domain: Bool flips,
// Enum re-draws a different choice, Int takes a geometric step of roughly
// ±scale of the domain (scale in (0,1], e.g. 0.1 for local search).
// The result always differs from current when the domain has >1 value.
func NeighborValue(f *Flag, current Value, rng *rand.Rand) Value {
	switch f.Type {
	case Bool:
		return BoolValue(!current.B)
	case Enum:
		if len(f.Choices) == 1 {
			return current
		}
		for {
			if i := rng.Intn(len(f.Choices)); int64(i) != current.I {
				return EnumValue(i)
			}
		}
	case Int:
		return IntValue(neighborInt(f, current.I, rng, 0.15))
	}
	return current
}

func neighborInt(f *Flag, cur int64, rng *rand.Rand, scale float64) int64 {
	if f.Min == f.Max {
		return cur
	}
	var v int64
	if f.LogScale && cur > 0 {
		// Multiplicative step: ×(1±scale…3·scale).
		factor := 1 + scale*(1+2*rng.Float64())
		if rng.Intn(2) == 0 {
			factor = 1 / factor
		}
		v = snap(f, int64(float64(cur)*factor))
	} else {
		span := f.Max - f.Min
		step := int64(float64(span)*scale*rng.Float64()) + f.step()
		if rng.Intn(2) == 0 {
			step = -step
		}
		v = snap(f, cur+step)
	}
	if v == cur {
		// Force at least one grid step of movement.
		if cur+f.step() <= f.Max {
			return cur + f.step()
		}
		return cur - f.step()
	}
	return v
}

// RandomizeFlags assigns fresh uniform random values to the flags ids in
// c, drawing in the order given. IDs come from c's registry.
func RandomizeFlags(c *Config, ids []ID, rng *rand.Rand) {
	for _, id := range ids {
		c.putID(id, SampleValue(c.reg.byID[id], rng))
	}
}

// MutateFlag replaces the value of flag id in c with a neighbor of its
// current effective value.
func MutateFlag(c *Config, id ID, rng *rand.Rand) {
	c.putID(id, NeighborValue(c.reg.byID[id], c.GetID(id), rng))
}

// Crossover returns a child configuration that inherits each of the flags
// ids' effective values from parent a or b with equal probability, one
// draw per flag in the order given. Flags outside ids stay at their
// defaults. The draw is rng.Int63()>>32&1, exactly the value rng.Intn(2)
// returns, without Intn's chain of calls: 1 takes a's value, 0 takes b's.
//
// The child holds only its canonical form (see Key): an inherited value
// is stored when it is off its default or its flag's explicitness
// matters, so a child of a few hundred active flags stores the dozen or
// so that its key keeps. When an ID repeats in ids the later draw wins,
// and a later draw of the default unsets the ID.
//
// The work follows what the parents hold, not the length of ids. For
// each ID it ORs three bitsets over the ID's 64-ID word: both parents'
// explicit IDs and the registry's mask of ExplicitMatters flags. An ID
// outside that union inherits a default that the canonical form leaves
// out, and the child cannot hold it from an earlier draw either (it holds
// only IDs inside the union), so the loop draws and moves on without
// reading a value or touching the child. The same loop serves any order
// and repeated IDs.
func Crossover(a, b *Config, ids []ID, rng *rand.Rand) *Config {
	if a.reg != b.reg {
		panic("flags: Crossover across registries")
	}
	reg := a.reg
	child := NewConfig(reg)
	for _, id := range ids {
		fromA := rng.Int63()>>32&1 != 0
		w, bit := id/64, uint64(1)<<(uint(id)%64)
		if (a.index[w].bits|b.index[w].bits|reg.matters[w])&bit == 0 {
			continue
		}
		src := b
		if fromA {
			src = a
		}
		if v := src.GetID(id); reg.byID[id].canonical(v) {
			child.putID(id, v)
		} else {
			child.UnsetID(id)
		}
	}
	return child
}
