package flags_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/flags"
	"repro/internal/flags/flagstest"
)

// TestRecycledParseMatchesFresh holds the recycling contract of
// Config.Reset, which clears only the explicit IDs: one pooled config
// that parses wide and narrow arg lists in turn, including lists that
// fail halfway, must read exactly like a fresh parse of the same list
// after every step. The wide lists carry every explicit assignment of a
// proposal, as older builds sent them.
func TestRecycledParseMatchesFresh(t *testing.T) {
	reg := flags.NewRegistry()
	wide := flagstest.WideArgs(flagstest.WideProposal(reg, 1))
	wide2 := flagstest.WideArgs(flagstest.WideProposal(reg, 2))
	narrow := []string{"-XX:+UseG1GC", "-XX:-UseParallelGC", "-Xmx2g", "-XX:MaxGCPauseMillis=50"}
	all := flagstest.WideArgs(reg.DefaultConfig())
	half := len(wide2) / 2
	broken := append(append(wide2[:half:half], "-XX:+NoSuchFlag"), wide2[half:]...)

	c := reg.AcquireConfig()
	for _, step := range []struct {
		name    string
		args    []string
		fails   bool
		release bool
	}{
		{name: "wide", args: wide},
		{name: "canonical", args: flagstest.Proposal(reg, 1).ExplicitArgs()},
		{name: "narrow", args: narrow},
		{name: "every flag", args: all},
		{name: "wide again", args: wide2},
		{name: "fails halfway", args: broken, fails: true},
		{name: "narrow after a failure", args: narrow},
		{name: "fails halfway, released", args: broken, fails: true, release: true},
		{name: "wide after a release", args: wide},
		{name: "empty", args: nil},
	} {
		err := flags.ParseArgsInto(c, step.args)
		if step.fails {
			if err == nil {
				t.Fatalf("%s: parse accepted a bogus flag", step.name)
			}
			if step.release {
				reg.ReleaseConfig(c)
				c = reg.AcquireConfig()
				sameConfig(t, step.name, c, flags.NewConfig(reg))
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		fresh, err := flags.ParseArgs(reg, step.args)
		if err != nil {
			t.Fatalf("%s: fresh parse: %v", step.name, err)
		}
		sameConfig(t, step.name, c, fresh)
	}
	reg.ReleaseConfig(c)
}

func sameConfig(t *testing.T, step string, got, want *flags.Config) {
	t.Helper()
	if g, w := got.Key(), want.Key(); g != w {
		t.Fatalf("%s: Key %q, want %q", step, g, w)
	}
	if g, w := got.ExplicitNames(), want.ExplicitNames(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: ExplicitNames %v, want %v", step, g, w)
	}
	reg := want.Registry()
	for id := flags.ID(0); int(id) < reg.Len(); id++ {
		if g, w := got.GetID(id), want.GetID(id); g != w {
			t.Fatalf("%s: %s = %+v, want %+v", step, reg.FlagByID(id).Name, g, w)
		}
	}
}

// TestExplicitArgsConcurrent renders from several goroutines at once:
// the renderer recycles its buffers across goroutines, and one render
// must never leak into another.
func TestExplicitArgsConcurrent(t *testing.T) {
	reg := flags.NewRegistry()
	cfgs := make([]*flags.Config, 8)
	want := make([][]string, len(cfgs))
	for i := range cfgs {
		cfgs[i] = flagstest.Proposal(reg, int64(i+1))
		want[i] = cfgs[i].ExplicitArgs()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				i := (g + n) % len(cfgs)
				if got := cfgs[i].ExplicitArgs(); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("config %d rendered %d args under concurrency, want %d as rendered alone", i, len(got), len(want[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var sinkArgs []string

// BenchmarkExplicitArgs renders the transport form of a hierarchical
// proposal: a walk over its dozen or so explicit flags that emits the
// canonical form, about ten args. The controller pays it once per fleet
// trial.
func BenchmarkExplicitArgs(b *testing.B) {
	c := flagstest.Proposal(flags.NewRegistry(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkArgs = c.ExplicitArgs()
	}
}

// BenchmarkParseArgsIntoRecycled parses a hierarchical proposal's
// transport args (its canonical form, about ten) into one pooled config,
// as an evald node does once per trial.
func BenchmarkParseArgsIntoRecycled(b *testing.B) {
	reg := flags.NewRegistry()
	args := flagstest.Proposal(reg, 1).ExplicitArgs()
	c := reg.AcquireConfig()
	defer reg.ReleaseConfig(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := flags.ParseArgsInto(c, args); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkConfig *flags.Config

// BenchmarkCrossover breeds a child from two flagstest parents over their
// branch's ~350 active flags, as every hierarchical crossover proposal
// does: one draw and one read per active flag, an append per canonical
// assignment, and the child's allocations.
func BenchmarkCrossover(b *testing.B) {
	a, p, active, _, _ := flagstest.Parents(flags.NewRegistry(), 1)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkConfig = flags.Crossover(a, p, active, rng)
	}
}
