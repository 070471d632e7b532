package hierarchy

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/flags"
)

func newTree(t *testing.T) *Tree {
	t.Helper()
	return Build(flags.NewRegistry())
}

func TestSelectedCollectorDefaults(t *testing.T) {
	r := flags.NewRegistry()
	c := flags.NewConfig(r)
	col, err := SelectedCollector(c)
	if err != nil || col != Parallel {
		t.Errorf("default collector = %v, %v; want parallel", col, err)
	}
}

func TestSelectedCollectorExplicit(t *testing.T) {
	r := flags.NewRegistry()
	cases := []struct {
		set  string
		want Collector
	}{
		{"UseSerialGC", Serial},
		{"UseConcMarkSweepGC", CMS},
		{"UseG1GC", G1},
	}
	for _, cse := range cases {
		c := flags.NewConfig(r)
		c.SetBool(cse.set, true)
		col, err := SelectedCollector(c)
		if err != nil || col != cse.want {
			t.Errorf("%s: got %v, %v; want %v", cse.set, col, err, cse.want)
		}
	}
}

func TestSelectedCollectorConflicts(t *testing.T) {
	r := flags.NewRegistry()
	c := flags.NewConfig(r)
	c.SetBool("UseSerialGC", true)
	c.SetBool("UseG1GC", true)
	if _, err := SelectedCollector(c); err == nil {
		t.Error("two collectors should conflict")
	}
	c2 := flags.NewConfig(r)
	c2.SetBool("UseG1GC", true)
	c2.SetBool("UseParallelGC", true) // explicit parallel alongside G1
	if _, err := SelectedCollector(c2); err == nil {
		t.Error("explicit parallel + G1 should conflict")
	}
}

func TestSelectedCollectorAllOff(t *testing.T) {
	r := flags.NewRegistry()
	c := flags.NewConfig(r)
	c.SetBool("UseParallelGC", false)
	col, err := SelectedCollector(c)
	if err != nil || col != Serial {
		t.Errorf("no collector selected should fall back to serial, got %v, %v", col, err)
	}
}

func TestValidateRules(t *testing.T) {
	r := flags.NewRegistry()
	ok := flags.NewConfig(r)
	if err := Validate(ok); err != nil {
		t.Errorf("defaults should validate: %v", err)
	}

	parNew := flags.NewConfig(r)
	parNew.SetBool("UseParNewGC", true) // with default parallel collector
	if err := Validate(parNew); err == nil {
		t.Error("ParNew without CMS should fail")
	}
	parNewCMS := flags.NewConfig(r)
	parNewCMS.SetBool("UseConcMarkSweepGC", true)
	parNewCMS.SetBool("UseParNewGC", true)
	if err := Validate(parNewCMS); err != nil {
		t.Errorf("ParNew with CMS should pass: %v", err)
	}

	heap := flags.NewConfig(r)
	heap.SetInt("InitialHeapSize", 2<<30)
	heap.SetInt("MaxHeapSize", 1<<30)
	if err := Validate(heap); err == nil {
		t.Error("Xms > Xmx should fail")
	}

	young := flags.NewConfig(r)
	young.SetInt("MaxHeapSize", 512<<20)
	young.SetInt("MaxNewSize", 512<<20)
	if err := Validate(young); err == nil {
		t.Error("young >= heap should fail")
	}

	newSizes := flags.NewConfig(r)
	newSizes.SetInt("NewSize", 256<<20)
	newSizes.SetInt("MaxNewSize", 128<<20)
	if err := Validate(newSizes); err == nil {
		t.Error("NewSize > MaxNewSize should fail")
	}

	cc := flags.NewConfig(r)
	cc.SetInt("InitialCodeCacheSize", 64<<20)
	cc.SetInt("ReservedCodeCacheSize", 16<<20)
	if err := Validate(cc); err == nil {
		t.Error("initial code cache > reserved should fail")
	}
}

func TestActiveFlagsFollowCollector(t *testing.T) {
	tr := newTree(t)
	r := tr.Registry()

	cms := flags.NewConfig(r)
	tr.mustApply(t, "collector", "cms", cms)
	if !tr.FlagActive("CMSInitiatingOccupancyFraction", cms) {
		t.Error("CMS flag inactive under CMS")
	}
	if tr.FlagActive("G1HeapRegionSize", cms) {
		t.Error("G1 flag active under CMS")
	}

	g1 := flags.NewConfig(r)
	tr.mustApply(t, "collector", "g1", g1)
	if !tr.FlagActive("G1HeapRegionSize", g1) {
		t.Error("G1 flag inactive under G1")
	}
	if tr.FlagActive("CMSInitiatingOccupancyFraction", g1) {
		t.Error("CMS flag active under G1")
	}
	if tr.FlagActive("NewRatio", g1) {
		t.Error("NewRatio should be inactive under G1's region model")
	}

	serial := flags.NewConfig(r)
	tr.mustApply(t, "collector", "serial", serial)
	if tr.FlagActive("ParallelGCThreads", serial) {
		t.Error("GC worker-pool flags active under serial")
	}
	if !tr.FlagActive("NewRatio", serial) {
		t.Error("NewRatio should be active under serial")
	}
}

// mustApply finds the named choice/branch and applies it.
func (t *Tree) mustApply(tt *testing.T, choice, branch string, c *flags.Config) {
	tt.Helper()
	for _, ch := range t.Choices() {
		if ch.Name != choice {
			continue
		}
		for _, b := range ch.Branches {
			if b.Name == branch {
				b.Apply(c)
				return
			}
		}
	}
	tt.Fatalf("no branch %s/%s", choice, branch)
}

func TestActiveFlagsFollowJITMode(t *testing.T) {
	tr := newTree(t)
	r := tr.Registry()
	classic := flags.NewConfig(r)
	if !tr.FlagActive("CompileThreshold", classic) {
		t.Error("CompileThreshold inactive in classic mode")
	}
	if tr.FlagActive("TieredStopAtLevel", classic) {
		t.Error("TieredStopAtLevel active in classic mode")
	}
	tiered := flags.NewConfig(r)
	tiered.SetBool("TieredCompilation", true)
	if tr.FlagActive("CompileThreshold", tiered) {
		t.Error("CompileThreshold active in tiered mode")
	}
	if !tr.FlagActive("TieredStopAtLevel", tiered) {
		t.Error("TieredStopAtLevel inactive in tiered mode")
	}
}

func TestGuardedSubsystems(t *testing.T) {
	tr := newTree(t)
	r := tr.Registry()
	c := flags.NewConfig(r)
	if !tr.FlagActive("TLABSize", c) {
		t.Error("TLAB flags should be active while UseTLAB (default true)")
	}
	c.SetBool("UseTLAB", false)
	if tr.FlagActive("TLABSize", c) {
		t.Error("TLAB flags should deactivate with UseTLAB off")
	}
	if !tr.FlagActive("BiasedLockingStartupDelay", flags.NewConfig(r)) {
		t.Error("biased-locking delay active by default")
	}
	noBias := flags.NewConfig(r)
	noBias.SetBool("UseBiasedLocking", false)
	if tr.FlagActive("BiasedLockingStartupDelay", noBias) {
		t.Error("biased-locking delay should deactivate")
	}
}

func TestEveryTunableFlagIsInTree(t *testing.T) {
	tr := newTree(t)
	r := tr.Registry()
	inTree := map[string]bool{}
	for _, n := range tr.AllTreeFlags() {
		inTree[n] = true
	}
	for _, n := range r.TunableNames() {
		if !inTree[n] {
			t.Errorf("tunable flag %s missing from tree (whole-JVM scope violated)", n)
		}
	}
}

func TestActiveFlagsAreTunableAndSortedAndUnique(t *testing.T) {
	tr := newTree(t)
	c := flags.NewConfig(tr.Registry())
	active := tr.ActiveFlags(c)
	if len(active) == 0 {
		t.Fatal("no active flags under defaults")
	}
	for i, id := range active {
		if f := tr.Registry().FlagByID(id); !f.Tunable() {
			t.Errorf("active flag %s is not tunable", f.Name)
		}
		if i > 0 && active[i-1] >= id {
			t.Errorf("active flags not strictly sorted at %d: %d >= %d", i, active[i-1], id)
		}
	}
}

func TestChoicesApplyProduceValidConfigs(t *testing.T) {
	tr := newTree(t)
	for _, ch := range tr.Choices() {
		for _, b := range ch.Branches {
			c := flags.NewConfig(tr.Registry())
			b.Apply(c)
			if err := Validate(c); err != nil {
				t.Errorf("branch %s/%s yields invalid config: %v", ch.Name, b.Name, err)
			}
		}
	}
	// All cross-products must also be valid.
	for _, col := range tr.Choices()[0].Branches {
		for _, jit := range tr.Choices()[1].Branches {
			c := flags.NewConfig(tr.Registry())
			col.Apply(c)
			jit.Apply(c)
			if err := Validate(c); err != nil {
				t.Errorf("combo %s+%s invalid: %v", col.Name, jit.Name, err)
			}
		}
	}
}

func TestCollectorBranchesSelectWhatTheyClaim(t *testing.T) {
	tr := newTree(t)
	want := map[string]Collector{
		"serial": Serial, "parallel": Parallel, "cms": CMS, "g1": G1,
	}
	for _, b := range tr.Choices()[0].Branches {
		c := flags.NewConfig(tr.Registry())
		b.Apply(c)
		col, err := SelectedCollector(c)
		if err != nil || col != want[b.Name] {
			t.Errorf("branch %s selects %v, %v", b.Name, col, err)
		}
	}
}

func TestSpaceSizeReduction(t *testing.T) {
	tr := newTree(t)
	ss := tr.SpaceSize()
	if ss.TunableFlags < 200 {
		t.Errorf("tunable universe too small: %d", ss.TunableFlags)
	}
	if ss.FlatLog10 <= ss.HierarchicalLog10 {
		t.Errorf("hierarchy did not reduce the space: flat 1e%.1f vs hier 1e%.1f",
			ss.FlatLog10, ss.HierarchicalLog10)
	}
	// The paper's pitch: the reduction is substantial. Inactive branch flags
	// alone should shave several orders of magnitude.
	if ss.FlatLog10-ss.HierarchicalLog10 < 3 {
		t.Errorf("reduction only 1e%.1f", ss.FlatLog10-ss.HierarchicalLog10)
	}
	if len(ss.ActivePerBranch) != 8 { // 4 collectors × 2 JIT modes
		t.Errorf("expected 8 branch combos, got %d", len(ss.ActivePerBranch))
	}
	for combo, n := range ss.ActivePerBranch {
		if n == 0 {
			t.Errorf("branch combo %s has no active flags", combo)
		}
	}
}

func TestEnumerateBranchCombos(t *testing.T) {
	a := Choice{Name: "a", Branches: []Branch{{Name: "1"}, {Name: "2"}}}
	b := Choice{Name: "b", Branches: []Branch{{Name: "x"}, {Name: "y"}, {Name: "z"}}}
	combos := enumerateBranchCombos([]Choice{a, b})
	if len(combos) != 6 {
		t.Fatalf("got %d combos, want 6", len(combos))
	}
	seen := map[string]bool{}
	for _, c := range combos {
		if len(c) != 2 {
			t.Fatalf("combo length %d", len(c))
		}
		seen[c[0].Name+c[1].Name] = true
	}
	if len(seen) != 6 {
		t.Errorf("combos not unique: %v", seen)
	}
	empty := enumerateBranchCombos(nil)
	if len(empty) != 1 || len(empty[0]) != 0 {
		t.Error("empty choice list should yield one empty combo")
	}
}

// foreignConfig returns a config over a custom registry that defines every
// flag the hierarchy reads, each at a different ID than in the standard
// catalog: read through the standard IDs, it would answer for other flags.
func foreignConfig(t *testing.T) *flags.Config {
	t.Helper()
	var defs []flags.Flag
	for _, name := range []string{"UseSerialGC", "UseParallelGC", "UseConcMarkSweepGC", "UseG1GC", "UseParNewGC", "TieredCompilation"} {
		defs = append(defs, flags.Flag{Name: name, Type: flags.Bool, Kind: flags.Product})
	}
	for _, name := range []string{"MaxHeapSize", "InitialHeapSize", "NewSize", "MaxNewSize",
		"InitialCodeCacheSize", "ReservedCodeCacheSize", "PermSize", "MaxPermSize"} {
		defs = append(defs, flags.Flag{Name: name, Type: flags.Int, Kind: flags.Product, Max: 1 << 40})
	}
	reg, err := flags.NewCustomRegistry(defs)
	if err != nil {
		t.Fatal(err)
	}
	return flags.NewConfig(reg)
}

// TestForeignRegistryPanics: the hierarchy reads configurations through
// IDs resolved against the standard catalog, so a configuration from any
// other registry must stop at the entry, naming the mismatch, instead of
// being judged by the wrong flags.
func TestForeignRegistryPanics(t *testing.T) {
	c := foreignConfig(t)
	tr := newTree(t)
	for _, e := range []struct {
		what string
		fn   func()
	}{
		{"Validate", func() { _ = Validate(c) }},
		{"SelectedCollector", func() { _, _ = SelectedCollector(c) }},
		{"ActiveFlags", func() { tr.ActiveFlags(c) }},
		{"Branch.Apply", func() { tr.Choices()[0].Branches[0].Apply(c) }},
		{"Build", func() { Build(c.Registry()) }},
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "registry other than the standard catalog") {
					t.Errorf("%s on a foreign config: panic %v, want one naming the registry mismatch", e.what, p)
				}
			}()
			e.fn()
		}()
	}
}

// TestBuildSharesOneTree: every Build returns the process's one tree, and
// that tree, after the sessions of earlier tests read it, answers as a
// fresh build does — the same flags, choices, and active flags under each
// branch combination and under random configurations.
func TestBuildSharesOneTree(t *testing.T) {
	reg := flags.NewRegistry()
	shared := Build(reg)
	if Build(reg) != shared {
		t.Fatal("Build returned two trees")
	}
	fresh := build(reg)
	if got, want := fmt.Sprint(shared.AllTreeFlags()), fmt.Sprint(fresh.AllTreeFlags()); got != want {
		t.Fatalf("shared tree flags %s, fresh %s", got, want)
	}
	var configs []*flags.Config
	for _, combo := range enumerateBranchCombos(shared.Choices()) {
		c := flags.NewConfig(reg)
		for _, b := range combo {
			b.Apply(c)
		}
		configs = append(configs, c)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		c := flags.NewConfig(reg)
		flags.RandomizeFlags(c, reg.TunableIDs(), rng)
		configs = append(configs, c)
	}
	for i, c := range configs {
		if got, want := shared.ActiveFlags(c), fresh.ActiveFlags(c); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("config %d: shared tree activates %v, fresh build %v", i, got, want)
		}
	}
	if got, want := fmt.Sprint(shared.SpaceSize()), fmt.Sprint(fresh.SpaceSize()); got != want {
		t.Fatalf("SpaceSize: shared %s, fresh %s", got, want)
	}
}
