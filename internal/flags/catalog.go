package flags

// This file defines the *modeled* portion of the HotSpot flag catalog: the
// knobs whose performance effect internal/jvmsim actually computes. Defaults
// follow the JDK-7-era server VM the paper tuned. The long tail of
// observability and verification flags lives in catalog_inert.go.

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// boolFlag builds a Product boolean flag definition.
func boolFlag(name string, cat Category, def bool, desc string) Flag {
	return Flag{Name: name, Type: Bool, Kind: Product, Category: cat,
		Default: BoolValue(def), Description: desc}
}

// intFlag builds a Product integer flag definition.
func intFlag(name string, cat Category, def, min, max, step int64, unit Unit, logScale bool, desc string) Flag {
	return Flag{Name: name, Type: Int, Kind: Product, Category: cat,
		Default: IntValue(def), Min: min, Max: max, Step: step,
		Unit: unit, LogScale: logScale, Description: desc}
}

// catalog returns the modeled flag definitions.
func catalog() []Flag {
	return []Flag{
		// ------------------------------------------------------------------
		// Garbage collector selection. Mutually exclusive booleans, exactly
		// as HotSpot exposes them; selecting more than one is an invalid
		// combination the (simulated) VM refuses to start with.
		// ------------------------------------------------------------------
		boolFlag("UseSerialGC", CatGC, false, "single-threaded stop-the-world collector"),
		// An explicit -XX:+UseParallelGC next to another collector is a
		// conflict; the defaulted one yields to it.
		{Name: "UseParallelGC", Type: Bool, Kind: Product, Category: CatGC, Default: BoolValue(true),
			ExplicitMatters: true, Description: "throughput collector, parallel young generation"},
		boolFlag("UseParallelOldGC", CatGC, true, "parallel old-generation compaction (with UseParallelGC)"),
		boolFlag("UseConcMarkSweepGC", CatGC, false, "concurrent mark-sweep old-generation collector"),
		boolFlag("UseParNewGC", CatGC, false, "parallel young collector for CMS"),
		boolFlag("UseG1GC", CatGC, false, "garbage-first region-based collector"),

		// GC threading and pacing.
		intFlag("ParallelGCThreads", CatGC, 8, 1, 64, 1, None, false, "stop-the-world GC worker threads"),
		intFlag("ConcGCThreads", CatGC, 2, 0, 32, 1, None, false, "concurrent GC worker threads (0 = auto)"),
		intFlag("MaxGCPauseMillis", CatGC, 200, 10, 5000, 10, Millis, true, "GC pause-time goal"),
		intFlag("GCTimeRatio", CatGC, 99, 1, 99, 1, None, false, "goal: 1/(1+ratio) of time in GC"),
		boolFlag("UseAdaptiveSizePolicy", CatGC, true, "let the collector resize generations online"),
		{Name: "UseGCOverheadLimit", Type: Bool, Kind: Product, Category: CatGC, Default: BoolValue(true), Description: "throw OutOfMemoryError when GC consumes nearly all time"},
		boolFlag("DisableExplicitGC", CatGC, false, "turn System.gc() calls into no-ops"),
		boolFlag("ExplicitGCInvokesConcurrent", CatGC, false, "System.gc() triggers a concurrent cycle instead of a full GC"),
		boolFlag("ScavengeBeforeFullGC", CatGC, true, "run a young collection before every full GC"),
		boolFlag("ParallelRefProcEnabled", CatGC, false, "process soft/weak references with multiple threads"),
		boolFlag("UseGCTaskAffinity", CatGC, false, "bind GC tasks to worker threads"),
		boolFlag("BindGCTaskThreadsToCPUs", CatGC, false, "pin GC worker threads to processors"),

		// CMS-specific knobs (active only under UseConcMarkSweepGC).
		intFlag("CMSInitiatingOccupancyFraction", CatGC, 68, 10, 95, 1, Percent, false, "old-gen occupancy that starts a CMS cycle"),
		boolFlag("UseCMSInitiatingOccupancyOnly", CatGC, false, "use only the set fraction, no adaptive triggering"),
		boolFlag("CMSParallelRemarkEnabled", CatGC, true, "parallelize the remark pause"),
		boolFlag("CMSScavengeBeforeRemark", CatGC, false, "young collection immediately before remark"),
		boolFlag("CMSClassUnloadingEnabled", CatGC, false, "unload classes during CMS cycles"),
		boolFlag("UseCMSCompactAtFullCollection", CatGC, true, "compact the old generation on CMS full GCs"),
		intFlag("CMSFullGCsBeforeCompaction", CatGC, 0, 0, 16, 1, None, false, "full GCs between CMS compactions"),

		// G1-specific knobs (active only under UseG1GC).
		intFlag("G1HeapRegionSize", CatGC, 0, 0, 32*mb, mb, Bytes, false, "G1 region size (0 = ergonomic)"),
		intFlag("G1ReservePercent", CatGC, 10, 0, 50, 1, Percent, false, "heap reserved to reduce promotion failure"),
		intFlag("InitiatingHeapOccupancyPercent", CatGC, 45, 5, 95, 1, Percent, false, "occupancy that starts a concurrent G1 cycle"),
		intFlag("G1MixedGCCountTarget", CatGC, 8, 1, 32, 1, None, false, "mixed collections over which to spread old-region evacuation"),
		intFlag("G1HeapWastePercent", CatGC, 10, 0, 50, 1, Percent, false, "reclaimable space below which mixed GCs stop"),

		// ------------------------------------------------------------------
		// Heap geometry.
		// ------------------------------------------------------------------
		intFlag("MaxHeapSize", CatHeap, 512*mb, 64*mb, 8*gb, 16*mb, Bytes, true, "maximum heap size (-Xmx)"),
		intFlag("InitialHeapSize", CatHeap, 128*mb, 8*mb, 8*gb, 16*mb, Bytes, true, "initial heap size (-Xms)"),
		intFlag("NewSize", CatHeap, 0, 0, 4*gb, 8*mb, Bytes, true, "initial young generation size (0 = ergonomic)"),
		intFlag("MaxNewSize", CatHeap, 0, 0, 4*gb, 8*mb, Bytes, true, "maximum young generation size (0 = ergonomic)"),
		intFlag("NewRatio", CatHeap, 2, 1, 16, 1, None, false, "old/young generation size ratio"),
		intFlag("SurvivorRatio", CatHeap, 8, 1, 32, 1, None, false, "eden/survivor-space size ratio"),
		intFlag("TargetSurvivorRatio", CatHeap, 50, 1, 100, 1, Percent, false, "desired survivor-space occupancy after scavenge"),
		intFlag("MaxTenuringThreshold", CatHeap, 15, 0, 15, 1, None, false, "copies an object survives before promotion"),
		intFlag("MinHeapFreeRatio", CatHeap, 40, 5, 70, 5, Percent, false, "expand heap below this free fraction"),
		intFlag("MaxHeapFreeRatio", CatHeap, 70, 30, 100, 5, Percent, false, "shrink heap above this free fraction"),
		intFlag("PretenureSizeThreshold", CatHeap, 0, 0, 16*mb, 64*kb, Bytes, false, "objects larger than this allocate directly in old gen (0 = off)"),
		intFlag("PermSize", CatHeap, 21*mb, 4*mb, 1*gb, 4*mb, Bytes, true, "initial permanent generation size"),
		intFlag("MaxPermSize", CatHeap, 85*mb, 16*mb, 1*gb, 4*mb, Bytes, true, "maximum permanent generation size"),
		boolFlag("AlwaysPreTouch", CatHeap, false, "touch every heap page at startup"),
		boolFlag("UseCompressedOops", CatHeap, true, "32-bit object references on 64-bit heaps under 32 GB"),
		boolFlag("UseLargePages", CatHeap, false, "back the heap with large memory pages"),
		boolFlag("UseNUMA", CatHeap, false, "NUMA-aware eden allocation"),

		// TLABs.
		boolFlag("UseTLAB", CatHeap, true, "thread-local allocation buffers"),
		intFlag("TLABSize", CatHeap, 0, 0, 4*mb, 16*kb, Bytes, false, "fixed TLAB size (0 = adaptive)"),
		boolFlag("ResizeTLAB", CatHeap, true, "adapt TLAB size to allocation behaviour"),
		intFlag("TLABWasteTargetPercent", CatHeap, 1, 1, 50, 1, Percent, false, "eden fraction wastable as TLAB slack"),

		// ------------------------------------------------------------------
		// JIT compilation.
		// ------------------------------------------------------------------
		boolFlag("TieredCompilation", CatJIT, false, "compile first with C1, then C2 (off in JDK 7 server)"),
		intFlag("TieredStopAtLevel", CatJIT, 4, 1, 4, 1, None, false, "highest tier used when tiered"),
		intFlag("CompileThreshold", CatJIT, 10000, 100, 100000, 100, None, true, "interpreted invocations before C2 compilation"),
		intFlag("CICompilerCount", CatJIT, 2, 1, 12, 1, None, false, "background compiler threads"),
		boolFlag("BackgroundCompilation", CatJIT, true, "compile asynchronously to execution"),
		intFlag("ReservedCodeCacheSize", CatJIT, 48*mb, 8*mb, 512*mb, 4*mb, Bytes, true, "code cache capacity"),
		intFlag("InitialCodeCacheSize", CatJIT, 500*kb, 160*kb, 64*mb, 32*kb, Bytes, true, "code cache initial size"),
		boolFlag("UseCodeCacheFlushing", CatJIT, false, "evict cold compiled methods when the cache fills"),
		intFlag("OnStackReplacePercentage", CatJIT, 140, 10, 1000, 10, Percent, false, "OSR trigger relative to CompileThreshold"),
		intFlag("InterpreterProfilePercentage", CatJIT, 33, 0, 100, 1, Percent, false, "fraction of threshold spent profiling in the interpreter"),

		// Inlining.
		intFlag("MaxInlineSize", CatInline, 35, 1, 200, 1, None, false, "max bytecode size of a trivially inlinable method"),
		intFlag("FreqInlineSize", CatInline, 325, 50, 2000, 25, None, false, "max bytecode size of a hot inlinable method"),
		intFlag("InlineSmallCode", CatInline, 1000, 500, 10000, 100, None, false, "max compiled size still considered for inlining"),
		intFlag("MaxInlineLevel", CatInline, 9, 1, 18, 1, None, false, "max depth of nested inlining"),
		intFlag("MaxRecursiveInlineLevel", CatInline, 1, 0, 3, 1, None, false, "max depth of recursive inlining"),
		boolFlag("ClipInlining", CatInline, true, "stop inlining once the size budget is spent"),
		boolFlag("InlineSynchronizedMethods", CatInline, true, "allow inlining of synchronized methods"),
		boolFlag("UseFastAccessorMethods", CatInline, false, "specialized interpreter entries for trivial getters"),

		// Compiler optimizations beyond inlining.
		boolFlag("DoEscapeAnalysis", CatJIT, true, "scalar-replace and stack-allocate non-escaping objects"),
		boolFlag("EliminateLocks", CatJIT, true, "remove provably-uncontended synchronization"),
		boolFlag("EliminateAllocations", CatJIT, true, "scalar replacement of non-escaping allocations"),
		boolFlag("UseSuperWord", CatJIT, true, "auto-vectorize inner loops"),
		boolFlag("OptimizeStringConcat", CatJIT, true, "fuse StringBuilder chains"),
		boolFlag("UseLoopPredicate", CatJIT, true, "hoist loop-invariant range checks"),
		boolFlag("RangeCheckElimination", CatJIT, true, "eliminate provably-safe array bounds checks"),
		boolFlag("AggressiveOpts", CatJIT, false, "point-release optimizations ahead of default adoption"),
		intFlag("LoopUnrollLimit", CatJIT, 50, 0, 200, 5, None, false, "node budget for loop unrolling"),

		// ------------------------------------------------------------------
		// Threads and synchronization.
		// ------------------------------------------------------------------
		boolFlag("UseBiasedLocking", CatThreads, true, "bias monitors toward their first locker"),
		intFlag("BiasedLockingStartupDelay", CatThreads, 4000, 0, 20000, 500, Millis, false, "delay before biasing begins"),
		boolFlag("UseSpinLocks", CatThreads, false, "spin before parking on contended monitors"),
		intFlag("ThreadStackSize", CatThreads, 512, 0, 8192, 64, None, false, "thread stack size in KB (0 = platform default)"),
		boolFlag("UseThreadPriorities", CatThreads, true, "map Java priorities to OS priorities"),
		boolFlag("UseCondCardMark", CatThreads, false, "check card state before dirtying (reduces false sharing)"),

		// ------------------------------------------------------------------
		// Runtime services.
		// ------------------------------------------------------------------
		boolFlag("UsePerfData", CatRuntime, true, "maintain the jvmstat shared-memory counters"),
		boolFlag("UseCounterDecay", CatRuntime, true, "decay interpreter invocation counters over time"),
		boolFlag("ReduceSignalUsage", CatRuntime, false, "do not install handlers for user signals"),
		boolFlag("AllowUserSignalHandlers", CatRuntime, false, "let application code install signal handlers"),
		boolFlag("ClassUnloading", CatRuntime, true, "unload unreachable classes at full GC"),
		boolFlag("UseStringCache", CatRuntime, false, "cache commonly-interned strings"),
		boolFlag("CompactStrings", CatRuntime, false, "byte-packed representation for Latin-1 strings"),
	}
}
