package hierarchy

import (
	"sort"
	"sync"

	"repro/internal/flags"
)

// Build returns the standard HotSpot flag tree over reg, which must be
// the standard catalog (flags.NewRegistry). The tree is built once per
// process, on the first call, and every call returns that one instance,
// so sessions share it instead of each building their own. A built tree
// is read-only: its guards are pure functions of the configuration they
// are given, and its nodes' ID lists are resolved during the build.
// Callers must not modify its nodes, choices or branches.
func Build(reg *flags.Registry) *Tree {
	if reg != std {
		panic("hierarchy: Build over a registry other than the standard catalog")
	}
	return standardTree()
}

var standardTree = sync.OnceValue(func() *Tree { return build(std) })

// build assembles the standard tree over reg. The shape follows the
// paper's description: top-level decision points for the garbage
// collector and the compilation mode, subtrees of collector- and
// mode-specific flags beneath them, shared subsystems (heap geometry,
// TLABs, inlining, synchronization, runtime services) alongside, and a
// tail node that absorbs every remaining tunable flag so the whole JVM
// stays in scope.
func build(reg *flags.Registry) *Tree {
	collectorIs := func(want Collector) Guard {
		return func(c *flags.Config) bool {
			got, err := SelectedCollector(c)
			return err == nil && got == want
		}
	}
	collectorNot := func(avoid ...Collector) Guard {
		return func(c *flags.Config) bool {
			got, err := SelectedCollector(c)
			if err != nil {
				return false
			}
			for _, a := range avoid {
				if got == a {
					return false
				}
			}
			return true
		}
	}
	boolOn := func(name string) Guard {
		id := reg.MustBool(name)
		return func(c *flags.Config) bool { return c.BoolAt(id) }
	}

	serialNode := &Node{
		Name:        "gc/serial",
		Description: "single-threaded collector; no parallel knobs apply",
		Guard:       collectorIs(Serial),
	}
	parallelNode := &Node{
		Name:        "gc/parallel",
		Description: "throughput collector",
		Guard:       collectorIs(Parallel),
		Flags: []string{
			"UseParallelOldGC", "UseAdaptiveSizePolicy", "GCTimeRatio",
			"MaxGCPauseMillis", "UseParallelDensePrefixUpdate",
		},
	}
	cmsNode := &Node{
		Name:        "gc/cms",
		Description: "concurrent mark-sweep collector",
		Guard:       collectorIs(CMS),
		Flags: []string{
			"UseParNewGC", "ConcGCThreads",
			"CMSInitiatingOccupancyFraction", "UseCMSInitiatingOccupancyOnly",
			"CMSParallelRemarkEnabled", "CMSScavengeBeforeRemark",
			"CMSClassUnloadingEnabled", "UseCMSCompactAtFullCollection",
			"CMSFullGCsBeforeCompaction", "ExplicitGCInvokesConcurrent",
		},
	}
	g1Node := &Node{
		Name:        "gc/g1",
		Description: "garbage-first collector",
		Guard:       collectorIs(G1),
		Flags: []string{
			"ConcGCThreads", "MaxGCPauseMillis",
			"G1HeapRegionSize", "G1ReservePercent",
			"InitiatingHeapOccupancyPercent", "G1MixedGCCountTarget",
			"G1HeapWastePercent", "ExplicitGCInvokesConcurrent",
		},
	}
	gcNode := &Node{
		Name:        "gc",
		Description: "garbage collection",
		Flags: []string{
			"UseSerialGC", "UseParallelGC", "UseConcMarkSweepGC", "UseG1GC",
			"DisableExplicitGC", "ScavengeBeforeFullGC",
		},
		Children: []*Node{
			{
				Name:        "gc/workers",
				Description: "stop-the-world worker pool (all but serial)",
				Guard:       collectorNot(Serial),
				Flags: []string{
					"ParallelGCThreads", "ParallelRefProcEnabled",
					"UseGCTaskAffinity", "BindGCTaskThreadsToCPUs",
				},
			},
			serialNode, parallelNode, cmsNode, g1Node,
		},
	}

	youngGeometry := &Node{
		Name:        "heap/young",
		Description: "generation boundary geometry (ignored by G1's regions)",
		Guard:       collectorNot(G1),
		Flags:       []string{"NewRatio", "NewSize", "MaxNewSize", "PretenureSizeThreshold"},
	}
	tlabNode := &Node{
		Name:        "heap/tlab",
		Description: "thread-local allocation buffer sizing",
		Guard:       boolOn("UseTLAB"),
		Flags:       []string{"TLABSize", "ResizeTLAB", "TLABWasteTargetPercent"},
	}
	heapNode := &Node{
		Name:        "heap",
		Description: "heap sizing and layout",
		Flags: []string{
			"MaxHeapSize", "InitialHeapSize", "PermSize", "MaxPermSize",
			"SurvivorRatio", "TargetSurvivorRatio", "MaxTenuringThreshold",
			"MinHeapFreeRatio", "MaxHeapFreeRatio",
			"AlwaysPreTouch", "UseCompressedOops", "UseLargePages", "UseNUMA",
			"UseTLAB",
		},
		Children: []*Node{youngGeometry, tlabNode},
	}

	classicJIT := &Node{
		Name:        "jit/classic",
		Description: "single-compiler (C2) mode",
		Guard:       func(c *flags.Config) bool { return !c.BoolAt(tieredCompilation) },
		Flags:       []string{"CompileThreshold", "OnStackReplacePercentage", "InterpreterProfilePercentage"},
	}
	tieredJIT := &Node{
		Name:        "jit/tiered",
		Description: "tiered C1→C2 mode",
		Guard:       boolOn("TieredCompilation"),
		Flags:       []string{"TieredStopAtLevel"},
	}
	inlineNode := &Node{
		Name:        "jit/inline",
		Description: "inlining policy",
		Flags: []string{
			"MaxInlineSize", "FreqInlineSize", "InlineSmallCode",
			"MaxInlineLevel", "MaxRecursiveInlineLevel", "ClipInlining",
			"InlineSynchronizedMethods", "UseFastAccessorMethods",
		},
	}
	optNode := &Node{
		Name:        "jit/opts",
		Description: "optimizer passes",
		Flags: []string{
			"DoEscapeAnalysis", "EliminateLocks", "EliminateAllocations",
			"UseSuperWord", "OptimizeStringConcat", "UseLoopPredicate",
			"RangeCheckElimination", "AggressiveOpts", "LoopUnrollLimit",
		},
	}
	jitNode := &Node{
		Name:        "jit",
		Description: "dynamic compilation",
		Flags: []string{
			"TieredCompilation", "CICompilerCount", "BackgroundCompilation",
			"ReservedCodeCacheSize", "InitialCodeCacheSize", "UseCodeCacheFlushing",
		},
		Children: []*Node{classicJIT, tieredJIT, inlineNode, optNode},
	}

	threadsNode := &Node{
		Name:        "threads",
		Description: "synchronization and stacks",
		Flags: []string{
			"UseBiasedLocking", "UseSpinLocks", "ThreadStackSize",
			"UseThreadPriorities", "UseCondCardMark",
		},
		Children: []*Node{
			{
				Name:        "threads/biased",
				Description: "biased-locking tuning",
				Guard:       boolOn("UseBiasedLocking"),
				Flags:       []string{"BiasedLockingStartupDelay"},
			},
		},
	}

	runtimeNode := &Node{
		Name:        "runtime",
		Description: "runtime services",
		Flags: []string{
			"UsePerfData", "UseCounterDecay", "ReduceSignalUsage",
			"AllowUserSignalHandlers", "ClassUnloading", "UseStringCache",
			"CompactStrings",
		},
	}

	root := &Node{
		Name:        "jvm",
		Description: "HotSpot",
		Children:    []*Node{gcNode, heapNode, jitNode, threadsNode, runtimeNode},
	}
	t := &Tree{Root: root, reg: reg}

	// Tail node: every tunable flag not placed above (the observability
	// tail, mostly). Whole-JVM tuning means nothing is out of scope.
	attached := map[string]bool{}
	for _, n := range t.AllTreeFlags() {
		attached[n] = true
	}
	var tail []string
	for _, n := range reg.TunableNames() {
		if !attached[n] {
			tail = append(tail, n)
		}
	}
	sort.Strings(tail)
	root.Children = append(root.Children, &Node{
		Name:        "tail",
		Description: "remaining product flags (observability, policies)",
		Flags:       tail,
	})
	root.resolve(reg)

	t.choices = []Choice{
		{
			Name: "collector",
			Branches: []Branch{
				{Name: "serial", Node: serialNode, Apply: selectCollector(Serial)},
				{Name: "parallel", Node: parallelNode, Apply: selectCollector(Parallel)},
				{Name: "cms", Node: cmsNode, Apply: selectCollector(CMS)},
				{Name: "g1", Node: g1Node, Apply: selectCollector(G1)},
			},
		},
		{
			Name: "compilation",
			Branches: []Branch{
				{Name: "classic", Node: classicJIT, Apply: func(c *flags.Config) {
					checkRegistry(c)
					c.SetBoolAt(tieredCompilation, false)
				}},
				{Name: "tiered", Node: tieredJIT, Apply: func(c *flags.Config) {
					checkRegistry(c)
					c.SetBoolAt(tieredCompilation, true)
				}},
			},
		},
	}
	return t
}

// selectCollector returns an Apply function that rewrites the collector
// selection flags to pick exactly one collector, the way a launcher would.
func selectCollector(col Collector) func(c *flags.Config) {
	return func(c *flags.Config) {
		checkRegistry(c)
		c.SetBoolAt(useSerialGC, col == Serial)
		c.SetBoolAt(useConcMarkSweepGC, col == CMS)
		c.SetBoolAt(useG1GC, col == G1)
		// Leave UseParallelGC implicit (default true) unless another
		// collector is chosen: an explicit true conflicts with them.
		if col == Parallel {
			c.UnsetID(flags.ID(useParallelGC))
		} else {
			c.SetBoolAt(useParallelGC, false)
		}
		c.SetBoolAt(useParNewGC, col == CMS)
	}
}

// resolve records the IDs of the tunable flags of n's subtree.
func (n *Node) resolve(reg *flags.Registry) {
	n.ids = n.ids[:0]
	for _, name := range n.Flags {
		if id := reg.ID(name); id != flags.NoID && reg.FlagByID(id).Tunable() {
			n.ids = append(n.ids, id)
		}
	}
	for _, ch := range n.Children {
		ch.resolve(reg)
	}
}
