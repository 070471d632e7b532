package hierarchy

import (
	"testing"

	"repro/internal/flags"
)

// ActiveFlags runs once per branch combination of a hierarchical session;
// Validate runs before every launch.

// BenchmarkBuildTree prices a real build, not Build's lookup of the
// process's one tree.
func BenchmarkBuildTree(b *testing.B) {
	reg := flags.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if build(reg) == nil {
			b.Fatal("nil tree")
		}
	}
}

func BenchmarkActiveFlags(b *testing.B) {
	reg := flags.NewRegistry()
	tree := Build(reg)
	c := flags.NewConfig(reg)
	c.SetBool("UseG1GC", true)
	c.SetBool("UseParallelGC", false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tree.ActiveFlags(c)) == 0 {
			b.Fatal("no active flags")
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	reg := flags.NewRegistry()
	c := flags.NewConfig(reg)
	c.SetBool("UseConcMarkSweepGC", true)
	c.SetBool("UseParallelGC", false)
	c.SetBool("UseParNewGC", true)
	c.SetInt("MaxHeapSize", 2<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Validate(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectedCollector(b *testing.B) {
	reg := flags.NewRegistry()
	c := flags.NewConfig(reg)
	c.SetBool("UseG1GC", true)
	c.SetBool("UseParallelGC", false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectedCollector(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpaceSize(b *testing.B) {
	tree := Build(flags.NewRegistry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tree.SpaceSize().FlatLog10 <= 0 {
			b.Fatal("bad space size")
		}
	}
}
