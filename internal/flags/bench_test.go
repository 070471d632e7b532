package flags

import (
	"math/rand"
	"testing"
)

// The flag layer sits on the tuner's hottest paths: every proposal clones
// and mutates a config, every cache lookup builds a canonical key, every
// launch renders a command line.

func benchConfig(b *testing.B) (*Registry, *Config) {
	b.Helper()
	reg := NewRegistry()
	c := NewConfig(reg)
	c.SetBool("UseG1GC", true)
	c.SetBool("UseParallelGC", false)
	c.SetInt("MaxHeapSize", 2<<30)
	c.SetInt("CompileThreshold", 2500)
	c.SetBool("TieredCompilation", true)
	c.SetInt("SurvivorRatio", 6)
	c.SetInt("MaxGCPauseMillis", 50)
	c.SetInt("G1ReservePercent", 15)
	return reg, c
}

func BenchmarkConfigClone(b *testing.B) {
	_, c := benchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Clone() == nil {
			b.Fatal("nil clone")
		}
	}
}

func BenchmarkConfigKeyCanonical(b *testing.B) {
	_, c := benchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Key() == "" {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkConfigKeyRebuild measures the un-memoized key walk — the cost a
// fresh configuration pays once — via AppendKey into a reused buffer.
func BenchmarkConfigKeyRebuild(b *testing.B) {
	_, c := benchConfig(b)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.AppendKey(buf[:0])
		if len(buf) == 0 {
			b.Fatal("empty key")
		}
	}
}

func BenchmarkConfigValidate(b *testing.B) {
	_, c := benchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommandLineRender keeps the name scripts/bench.sh has tracked
// since the rendering had a second name, so its trajectory stays whole.
func BenchmarkCommandLineRender(b *testing.B) {
	_, c := benchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.ExplicitArgs()) == 0 {
			b.Fatal("no args")
		}
	}
}

func BenchmarkParseArgs(b *testing.B) {
	reg, c := benchConfig(b)
	args := c.ExplicitArgs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseArgs(reg, args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMutateFlag(b *testing.B) {
	reg, c := benchConfig(b)
	rng := rand.New(rand.NewSource(1))
	ids := reg.TunableIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MutateFlag(c, ids[i%len(ids)], rng)
	}
}

func BenchmarkSampleValueLogScale(b *testing.B) {
	reg := NewRegistry()
	f := reg.Lookup("MaxHeapSize")
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleValue(f, rng)
	}
}

func BenchmarkDiff(b *testing.B) {
	reg, c := benchConfig(b)
	def := NewConfig(reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(c.Diff(def)) == 0 {
			b.Fatal("empty diff")
		}
	}
}
