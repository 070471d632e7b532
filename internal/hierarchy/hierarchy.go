// Package hierarchy implements the paper's first contribution: organizing
// the JVM's flags into a tree that encodes their dependencies. A flag like
// CMSInitiatingOccupancyFraction only means anything when the CMS collector
// is selected; TieredStopAtLevel only when tiered compilation is on. The
// tree makes those relationships explicit so that
//
//   - the tuner only mutates flags that are *active* under the current
//     configuration (dependency resolution), and
//   - the size of the space actually searched collapses from the flat
//     product of all domains to the per-branch products (search-space
//     reduction, the paper's Table 3 claim).
//
// The tree also owns semantic validation of flag combinations (collector
// exclusivity, heap-geometry sanity): exactly the checks the real VM
// performs at startup, shared here between the tuner and the simulator.
package hierarchy

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/flags"
)

// The flags the hierarchy reads, resolved once against the standard
// catalog. A misspelled or mistyped name panics at package initialization.
var (
	std = flags.NewRegistry()

	useSerialGC           = std.MustBool("UseSerialGC")
	useParallelGC         = std.MustBool("UseParallelGC")
	useConcMarkSweepGC    = std.MustBool("UseConcMarkSweepGC")
	useG1GC               = std.MustBool("UseG1GC")
	useParNewGC           = std.MustBool("UseParNewGC")
	tieredCompilation     = std.MustBool("TieredCompilation")
	maxHeapSize           = std.MustInt("MaxHeapSize")
	initialHeapSize       = std.MustInt("InitialHeapSize")
	newSize               = std.MustInt("NewSize")
	maxNewSize            = std.MustInt("MaxNewSize")
	initialCodeCacheSize  = std.MustInt("InitialCodeCacheSize")
	reservedCodeCacheSize = std.MustInt("ReservedCodeCacheSize")
	permSize              = std.MustInt("PermSize")
	maxPermSize           = std.MustInt("MaxPermSize")
)

// checkRegistry panics unless c is over the standard catalog: the
// hierarchy reads configurations through IDs resolved against it, and an
// ID of another registry names another flag.
func checkRegistry(c *flags.Config) {
	if c.Registry() != std {
		panic("hierarchy: configuration from a registry other than the standard catalog")
	}
}

// Collector identifies the garbage collection algorithm a configuration
// selects.
type Collector string

// The four collector families of the JDK-7-era HotSpot VM.
const (
	Serial   Collector = "serial"
	Parallel Collector = "parallel"
	CMS      Collector = "cms"
	G1       Collector = "g1"
)

// SelectedCollector derives the collector a configuration selects, using
// HotSpot's ergonomics: explicit selection wins; with nothing selected the
// server VM defaults to the parallel (throughput) collector. The returned
// error reports conflicting selections, mirroring the VM's
// "Conflicting collector combinations" startup failure.
func SelectedCollector(c *flags.Config) (Collector, error) {
	checkRegistry(c)
	// Every launch and every guard asks, so the selection lives on the
	// stack; only the error paths copy it out.
	var buf [3]Collector
	picked := buf[:0]
	if c.BoolAt(useSerialGC) {
		picked = append(picked, Serial)
	}
	if c.BoolAt(useConcMarkSweepGC) {
		picked = append(picked, CMS)
	}
	if c.BoolAt(useG1GC) {
		picked = append(picked, G1)
	}
	if len(picked) > 1 {
		return "", fmt.Errorf("hierarchy: conflicting collector combinations: %v", append([]Collector(nil), picked...))
	}
	if len(picked) == 1 {
		// UseParallelGC defaults to true; an explicit collector choice
		// overrides it only if parallel was not *also* explicitly forced.
		if c.BoolAt(useParallelGC) && c.IsExplicitID(flags.ID(useParallelGC)) {
			return "", fmt.Errorf("hierarchy: conflicting collector combinations: %v and parallel", append([]Collector(nil), picked...))
		}
		return picked[0], nil
	}
	if c.BoolAt(useParallelGC) {
		return Parallel, nil
	}
	return Serial, nil
}

// Validate checks a configuration for the semantic rules a real VM enforces
// at startup. A nil return means the VM would start.
func Validate(c *flags.Config) error {
	col, err := SelectedCollector(c)
	if err != nil {
		return err
	}
	if c.BoolAt(useParNewGC) && col != CMS {
		return fmt.Errorf("hierarchy: UseParNewGC is only valid with the CMS collector (selected %s)", col)
	}
	heap := c.IntAt(maxHeapSize)
	if init := c.IntAt(initialHeapSize); init > heap {
		return fmt.Errorf("hierarchy: InitialHeapSize (%d) exceeds MaxHeapSize (%d)", init, heap)
	}
	if ns, ms := c.IntAt(newSize), c.IntAt(maxNewSize); ms != 0 && ns > ms {
		return fmt.Errorf("hierarchy: NewSize (%d) exceeds MaxNewSize (%d)", ns, ms)
	}
	if ms := c.IntAt(maxNewSize); ms != 0 && ms >= heap {
		return fmt.Errorf("hierarchy: MaxNewSize (%d) leaves no old generation in a %d-byte heap", ms, heap)
	}
	if c.IntAt(initialCodeCacheSize) > c.IntAt(reservedCodeCacheSize) {
		return fmt.Errorf("hierarchy: InitialCodeCacheSize exceeds ReservedCodeCacheSize")
	}
	if c.IntAt(permSize) > c.IntAt(maxPermSize) {
		return fmt.Errorf("hierarchy: PermSize exceeds MaxPermSize")
	}
	return nil
}

// Guard is a predicate deciding whether a tree node is active under a
// configuration.
type Guard func(c *flags.Config) bool

// Node is one vertex of the flag tree. A node owns a set of flags (tuned
// only while the node is active) and optionally children. A node with a
// nil Guard is active whenever its parent is.
type Node struct {
	Name        string
	Description string
	Guard       Guard
	Flags       []string
	Children    []*Node

	ids []flags.ID // the tunable Flags' IDs, resolved by Build
}

// Branch is one alternative of a Choice: a way to configure the flags that
// select it.
type Branch struct {
	Name string
	// Apply mutates a configuration to select this branch.
	Apply func(c *flags.Config)
	// Node is the subtree activated by this branch.
	Node *Node
}

// Choice is a decision point of the tree: a small set of mutually exclusive
// branches (collector selection, compilation mode). The hierarchical tuner
// enumerates choices top-down before descending into numeric flags.
type Choice struct {
	Name     string
	Branches []Branch
}

// Tree is the assembled flag hierarchy over one registry.
type Tree struct {
	Root    *Node
	reg     *flags.Registry
	choices []Choice
}

// Registry returns the registry the tree was built over.
func (t *Tree) Registry() *flags.Registry { return t.reg }

// Choices returns the tree's decision points in top-down order.
func (t *Tree) Choices() []Choice { return t.choices }

// ActiveFlags returns the IDs of all *tunable* flags that are active
// (their node's guard chain holds) under c, in ID (= sorted-name) order.
// These are the flags a dependency-respecting tuner may usefully mutate.
// The active nodes' ID lists are merged in a bitset, which yields them in
// ID order with duplicates removed.
func (t *Tree) ActiveFlags(c *flags.Config) []flags.ID {
	checkRegistry(c)
	var small [16]uint64 // the standard catalog needs 13 words
	set := small[:]
	if words := (t.reg.Len() + 63) / 64; words > len(small) {
		set = make([]uint64, words)
	}
	n := t.Root.activate(c, set)
	out := make([]flags.ID, 0, n)
	for w, word := range set {
		for word != 0 {
			out = append(out, flags.ID(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out
}

// activate adds the IDs of n's subtree that are active under c to set and
// returns how many it added.
func (n *Node) activate(c *flags.Config, set []uint64) int {
	if n.Guard != nil && !n.Guard(c) {
		return 0
	}
	added := 0
	for _, id := range n.ids {
		if w, bit := id/64, uint64(1)<<(id%64); set[w]&bit == 0 {
			set[w] |= bit
			added++
		}
	}
	for _, ch := range n.Children {
		added += ch.activate(c, set)
	}
	return added
}

// FlagActive reports whether the named flag is active under c.
func (t *Tree) FlagActive(name string, c *flags.Config) bool {
	id := t.reg.ID(name)
	for _, a := range t.ActiveFlags(c) {
		if a == id {
			return true
		}
	}
	return false
}

// AllTreeFlags returns the sorted names of every flag attached anywhere in
// the tree (active or not).
func (t *Tree) AllTreeFlags() []string {
	seen := map[string]bool{}
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, name := range n.Flags {
			seen[name] = true
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(t.Root)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SpaceSize quantifies the paper's search-space-reduction claim.
// FlatLog10 is log10 of the product of every tunable flag's domain size —
// the space a hierarchy-ignorant tuner faces. HierarchicalLog10 is log10 of
// the sum over leaf branch combinations of the active-flag domain products —
// the space the tree-guided tuner faces.
type SpaceSize struct {
	FlatLog10         float64
	HierarchicalLog10 float64
	TunableFlags      int
	ActivePerBranch   map[string]int
}

// SpaceSize computes flat and hierarchy-reduced search-space sizes.
func (t *Tree) SpaceSize() SpaceSize {
	ss := SpaceSize{ActivePerBranch: map[string]int{}}
	for _, id := range t.reg.TunableIDs() {
		ss.FlatLog10 += math.Log10(float64(t.reg.FlagByID(id).DomainSize()))
		ss.TunableFlags++
	}
	// Enumerate the cross product of choice branches; for each combination,
	// apply the branches to a default config and measure the active space.
	combos := enumerateBranchCombos(t.choices)
	var sumLog float64 // log10 of running sum, via log-sum-exp
	first := true
	for _, combo := range combos {
		c := flags.NewConfig(t.reg)
		var label string
		for i, b := range combo {
			b.Apply(c)
			if i > 0 {
				label += "+"
			}
			label += b.Name
		}
		var branchLog float64
		active := t.ActiveFlags(c)
		for _, id := range active {
			branchLog += math.Log10(float64(t.reg.FlagByID(id).DomainSize()))
		}
		ss.ActivePerBranch[label] = len(active)
		if first {
			sumLog, first = branchLog, false
			continue
		}
		// log10(10^a + 10^b)
		hi, lo := sumLog, branchLog
		if lo > hi {
			hi, lo = lo, hi
		}
		sumLog = hi + math.Log10(1+math.Pow(10, lo-hi))
	}
	ss.HierarchicalLog10 = sumLog
	return ss
}

func enumerateBranchCombos(choices []Choice) [][]Branch {
	if len(choices) == 0 {
		return [][]Branch{{}}
	}
	rest := enumerateBranchCombos(choices[1:])
	var out [][]Branch
	for _, b := range choices[0].Branches {
		for _, r := range rest {
			combo := append([]Branch{b}, r...)
			out = append(out, combo)
		}
	}
	return out
}
