package flags_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/flags"
)

// fuzzConfig builds a parent from fuzz bytes, three per assignment: two
// pick the flag (any flag of the registry, modulo its size), and the
// third's low bit chooses between an explicit default and a value drawn
// from vals. Explicit defaults are the case the crossover's mask must not
// skip when their flag's explicitness matters.
func fuzzConfig(reg *flags.Registry, data []byte, vals *rand.Rand) *flags.Config {
	c := flags.NewConfig(reg)
	for ; len(data) >= 3; data = data[3:] {
		id := fuzzID(reg, data)
		v := reg.FlagByID(id).Default
		if data[2]&1 != 0 {
			v = flags.SampleValue(reg.FlagByID(id), vals)
		}
		mustSet(c, id, v)
	}
	return c
}

// fuzzID reads one flag ID from the first two bytes of data.
func fuzzID(reg *flags.Registry, data []byte) flags.ID {
	return flags.ID((int(data[0])<<8 | int(data[1])) % reg.Len())
}

// fuzzIDs reads an ID list, two bytes per ID, in the order given: lists
// may be shuffled and may repeat IDs.
func fuzzIDs(reg *flags.Registry, data []byte) []flags.ID {
	var ids []flags.ID
	for ; len(data) >= 2; data = data[2:] {
		ids = append(ids, fuzzID(reg, data))
	}
	return ids
}

// FuzzCrossover: Crossover and the name-form reference, run from
// identically seeded sources over fuzzed parents and ID lists, give the
// same explicit IDs (the reference's canonical form), the same Key and
// rendering, and leave the sources on the same next draw. The checked-in
// seeds hold parents with explicit defaults, UseParallelGC (the
// catalog's ExplicitMatters flag) explicit at its default, IDs on both
// sides of a 64-ID word boundary, and shuffled lists with repeats.
func FuzzCrossover(f *testing.F) {
	reg := flags.NewRegistry()
	id2 := func(ids ...flags.ID) []byte {
		var b []byte
		for _, id := range ids {
			b = append(b, byte(id>>8), byte(id))
		}
		return b
	}
	par := reg.ID("UseParallelGC")
	f.Add(int64(1), append(id2(par), 0), []byte{}, id2(par, 63, 64, par))
	f.Add(int64(2), []byte{0, 63, 1, 0, 64, 0}, []byte{0, 64, 1, 0, 63, 0}, id2(62, 63, 64, 65, 64, 63))
	f.Add(int64(3), []byte{}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, pa, pb, list []byte) {
		if len(list) > 4096 {
			list = list[:4096]
		}
		vals := rand.New(rand.NewSource(seed))
		a, b := fuzzConfig(reg, pa, vals), fuzzConfig(reg, pb, vals)
		ids := fuzzIDs(reg, list)
		r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		child := flags.Crossover(a, b, ids, r1)
		ref := crossoverByName(a, b, namesOf(reg, ids), r2)
		if got, want := child.ExplicitIDs(), ref.Canonical().ExplicitIDs(); !reflect.DeepEqual(append([]flags.ID{}, got...), append([]flags.ID{}, want...)) {
			t.Fatalf("explicit flags\n  got  %v\n  want %v", namesOf(reg, got), namesOf(reg, want))
		}
		sameConfigs(t, "Crossover", child, ref)
		sameNextDraw(t, "Crossover", r1, r2)
	})
}
