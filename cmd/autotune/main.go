// Command autotune tunes one benchmark under a virtual time budget and
// prints the winning flag configuration — the interactive face of the
// reproduction.
//
// Usage:
//
//	autotune -benchmark h2 [-budget 200] [-searcher hierarchical]
//	         [-reps 3] [-seed 0] [-workers 4] [-objective throughput]
//	         [-chaos unstable-farm] [-retries 3]
//	         [-max-trials 0] [-real-budget 0] [-hedge] [-quarantine]
//	         [-drift] [-drift-sensitivity 1]
//	         [-trace out.jsonl] [-convergence] [-jvmsim path/to/jvmsim]
//	autotune -list
//	autotune -scenarios
//
// Budgets degrade gracefully rather than fail: when the virtual budget, a
// -max-trials trial budget, or a -real-budget wall-clock cap expires — or
// the run is interrupted with Ctrl-C — autotune exits 0 with the best
// configuration found so far, marked "degraded" with the reason. -hedge
// arms the straggler watchdog (trials far beyond the recent cost percentile
// are charged as if a duplicate dispatch won); -quarantine arms the failure
// circuit breaker (flag subtrees that keep failing deterministically are
// temporarily rejected at zero cost).
//
// -chaos runs the session under the deterministic fault-injection layer
// (internal/faultinject): transient launch failures, corrupt reports,
// spurious crashes, hangs, and latency spikes are injected on a schedule
// derived from -seed, so chaos sessions reproduce exactly. It accepts a
// named scenario (see -scenarios) or a fault-plan DSL spec like
// "launch=0.1,spike=0.2". -retries bounds launch attempts per measurement
// when transient failures strike.
//
// -drift arms workload-drift detection and live re-tuning (docs/DRIFT.md):
// when delivered scores shift up by more than search dynamics explain, the
// session opens a new tuning epoch — the stale winner is demoted to a
// candidate and the search restarts warm from it (plus transfer priors with
// -transfer-dir). The chaos DSL's drift-at=N fault (and the drift-midrun /
// drift-storm scenarios) actually shifts the simulated workload, which is
// the scripted way to drill recovery:
//
//	autotune -benchmark xalan -drift -chaos drift-at=40
//
// -drift-sensitivity scales the detector (1 = calibrated default, higher
// fires on weaker evidence). Per-epoch bests and drift provenance are
// printed after the run and land in the -out archive under "epochs".
//
// -trace writes the session's structured event stream (proposals, launch
// attempts, retries, injected faults, observations — each stamped with its
// virtual time) as JSONL to the given file. For a fixed -seed the file is
// byte-identical across runs at any -workers count, so traces diff cleanly.
// -convergence prints the best-so-far curve; a telemetry summary of the
// measurement economy is printed after every run.
//
// -checkpoint FILE makes the session crash-safe: its state is periodically
// snapshotted to FILE (every -checkpoint-every trials), and a killed run
// continues from the snapshot with -resume — converging to the
// byte-identical result the uninterrupted run would have produced. The
// chaos DSL's crash-at=N fault kills the session after N trials (exit code
// 7, checkpoint retained), which is the scripted way to drill recovery:
//
//	autotune -benchmark h2 -checkpoint h2.ckpt -chaos crash-at=20
//	autotune -benchmark h2 -checkpoint h2.ckpt -resume
//
// -transfer-dir DIR points the session at a cross-workload knowledge base
// (see docs/TRANSFER.md): the search warm-starts from the best stored
// configurations of the -transfer-k nearest workload fingerprints, and the
// session's own winner is recorded back into DIR for future runs. A missing
// or empty store simply yields a cold start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/hotspot"
)

// runTune calls hotspot.TuneContext, converting a crash-point kill (the
// chaos plan's crash-at=N fault panics with SessionCrash) into an ordinary
// error so main can exit with a distinct code while the deferred checkpoint
// machinery has already flushed during the unwind. Any other panic is a
// genuine bug and keeps propagating.
func runTune(ctx context.Context, opts hotspot.Options) (res *hotspot.Result, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		crash, ok := r.(hotspot.SessionCrash)
		if !ok {
			panic(r)
		}
		res, err = nil, crash
	}()
	return hotspot.TuneContext(ctx, opts)
}

// traceCap bounds the event trace; generous enough that even a long chaos
// session at full budget keeps every event (the recorder drops oldest
// deterministically if ever exceeded).
const traceCap = 1 << 18

func main() {
	var (
		bench    = flag.String("benchmark", "", "benchmark to tune (see -list)")
		budget   = flag.Float64("budget", 200, "tuning budget in virtual minutes")
		searcher = flag.String("searcher", "hierarchical", "search strategy: "+strings.Join(hotspot.Searchers(), ", "))
		reps     = flag.Int("reps", 3, "repetitions per measurement")
		seed     = flag.Int64("seed", 0, "random seed")
		trace    = flag.String("trace", "", "write the session's event trace as JSONL to this file")
		converge = flag.Bool("convergence", false, "print the convergence trace")
		jvmsim   = flag.String("jvmsim", "", "path to the jvmsim binary; measure via subprocesses")
		nodes    = flag.String("nodes", "", "comma-separated evald nodes (host:port); dispatch measurements to this fleet")
		fleetSt  = flag.String("fleet-state", "", "journal fleet membership to this file (default <checkpoint>.fleet with -nodes and -checkpoint)")
		fleetLn  = flag.String("fleet-listen", "", "serve fleet registration on this address so evald -join nodes enter and drain at runtime")
		batch    = flag.Int("batch", 0, "trials per evaluate-batch round trip to the fleet (0 = one trial per round trip)")
		tlsCert  = flag.String("tls-cert", "", "PEM certificate presented to fleet peers (mutual TLS)")
		tlsKey   = flag.String("tls-key", "", "PEM key for -tls-cert")
		tlsCA    = flag.String("tls-ca", "", "PEM CA bundle fleet peers must chain to")
		token    = flag.String("auth-token", "", "shared bearer token stamped on fleet requests and demanded on registrations")
		workers  = flag.Int("workers", 1, fmt.Sprintf("parallel evaluation workers (goroutines and virtual slots, at most %d)", hotspot.MaxWorkers))
		objectiv = flag.String("objective", "throughput", "what to minimize: throughput (wall time) or pause (worst GC pause)")
		explain  = flag.Bool("explain", false, "attribute the improvement to individual flags")
		chaos    = flag.String("chaos", "", "fault-injection plan: a scenario (see -scenarios) or DSL like launch=0.1,spike=0.2")
		retries  = flag.Int("retries", 0, "max launch attempts per measurement on transient failures (0 = default 3)")
		maxTrial = flag.Int("max-trials", 0, "trial budget: stop after this many trials with a degraded best-so-far result (0 = no cap)")
		realBudg = flag.Duration("real-budget", 0, "wall-clock budget, e.g. 200ms: expiry returns a degraded best-so-far result (0 = no cap)")
		hedge    = flag.Bool("hedge", false, "hedge straggling trials past the recent cost percentile")
		quarant  = flag.Bool("quarantine", false, "circuit-break flag subtrees with dense deterministic failures")
		drift    = flag.Bool("drift", false, "detect workload drift and re-tune: a confirmed score shift opens a new epoch warm-started from the stale winner")
		driftSen = flag.Float64("drift-sensitivity", 0, "drift detector sensitivity: 1 = calibrated default, higher fires on weaker evidence (0 = default; needs -drift)")
		out      = flag.String("out", "", "save the result as JSON to this file")
		ckpt     = flag.String("checkpoint", "", "snapshot session state to this file for crash recovery")
		ckptN    = flag.Int("checkpoint-every", 0, "checkpoint cadence in completed trials (0 = default 8)")
		resume   = flag.Bool("resume", false, "continue the session recorded at -checkpoint")
		xferDir  = flag.String("transfer-dir", "", "cross-workload knowledge-base directory: warm-start from it and record the winner into it")
		xferK    = flag.Int("transfer-k", 0, "nearest stored fingerprints to draw warm-start priors from (0 = default 3)")
		list     = flag.Bool("list", false, "list benchmarks and exit")
		scens    = flag.Bool("scenarios", false, "list fault-injection scenarios and exit")
	)
	flag.Parse()

	if *list {
		for _, b := range hotspot.Benchmarks() {
			fmt.Println(b)
		}
		return
	}
	if *scens {
		for _, s := range hotspot.ChaosScenarios() {
			fmt.Println(s)
		}
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "autotune: -benchmark is required (try -list)")
		os.Exit(2)
	}
	if err := hotspot.CheckWorkersReps(*workers, *reps); err != nil {
		fmt.Fprintf(os.Stderr, "autotune: %v\n", err)
		os.Exit(2)
	}

	reg := hotspot.NewMetricsRegistry()
	var tracer *hotspot.Tracer
	if *trace != "" {
		tracer = hotspot.NewTracer(traceCap)
	}
	// Ctrl-C is a best-effort stop, not an abort: the session halts at its
	// next evaluation round and reports the best configuration found so
	// far, marked degraded. A second signal kills the process the hard way
	// (signal.NotifyContext restores default handling once ctx is done).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var nodeList []string
	if *nodes != "" {
		nodeList = strings.Split(*nodes, ",")
	}
	fleetPath := *fleetSt
	if fleetPath == "" && (len(nodeList) > 0 || *fleetLn != "") && *ckpt != "" {
		// A crash-safe distributed session keeps its fleet view next to its
		// checkpoint by default, so -resume recovers both.
		fleetPath = *ckpt + ".fleet"
	}
	res, err := runTune(ctx, hotspot.Options{
		Benchmark:             *bench,
		Searcher:              *searcher,
		BudgetMinutes:         *budget,
		Reps:                  *reps,
		Seed:                  *seed,
		Noise:                 -1,
		JVMSimPath:            *jvmsim,
		Nodes:                 nodeList,
		FleetStatePath:        fleetPath,
		FleetListen:           *fleetLn,
		DispatchBatch:         *batch,
		TLSCert:               *tlsCert,
		TLSKey:                *tlsKey,
		TLSCA:                 *tlsCA,
		AuthToken:             *token,
		Workers:               *workers,
		Objective:             *objectiv,
		Chaos:                 *chaos,
		RetryAttempts:         *retries,
		MaxTrials:             *maxTrial,
		RealBudgetSeconds:     realBudg.Seconds(),
		BestEffort:            true,
		Hedge:                 *hedge,
		Quarantine:            *quarant,
		Drift:                 *drift,
		DriftSensitivity:      *driftSen,
		Telemetry:             reg,
		Trace:                 tracer,
		CheckpointPath:        *ckpt,
		CheckpointEveryTrials: *ckptN,
		Resume:                *resume,
		TransferDir:           *xferDir,
		TransferK:             *xferK,
	})
	if err != nil {
		var crash hotspot.SessionCrash
		if errors.As(err, &crash) {
			fmt.Fprintf(os.Stderr, "autotune: %v (checkpoint retained; rerun with -resume)\n", err)
			os.Exit(7)
		}
		fmt.Fprintf(os.Stderr, "autotune: %v\n", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := res.Save(*out); err != nil {
			fmt.Fprintf(os.Stderr, "autotune: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Printf("benchmark:    %s\n", res.Benchmark)
	fmt.Printf("searcher:     %s\n", res.Searcher)
	fmt.Printf("default:      %.2fs\n", res.DefaultWall)
	fmt.Printf("tuned:        %.2fs\n", res.BestWall)
	fmt.Printf("improvement:  %.1f%%  (%.2fx speedup)\n", res.ImprovementPct, res.Speedup)
	fmt.Printf("collector:    %s\n", res.Collector)
	fmt.Printf("trials:       %d  (%d failures, %d cache hits)\n", res.Trials, res.Failures, res.CacheHits)
	if res.Degraded {
		fmt.Printf("degraded:     %s — result is the best found so far\n", res.DegradedReason)
	}
	if res.Hedges > 0 || res.HedgeWins > 0 {
		fmt.Printf("hedging:      %d stragglers hedged, %d hedges won\n", res.Hedges, res.HedgeWins)
	}
	if res.Quarantined > 0 {
		fmt.Printf("quarantine:   %d trials rejected by the circuit breaker\n", res.Quarantined)
	}
	if len(res.Epochs) > 0 {
		fmt.Printf("drift:        %d epochs (%d confirmed drifts)\n", len(res.Epochs), len(res.Epochs)-1)
		for _, ep := range res.Epochs {
			if ep.DriftTrial > 0 {
				fmt.Printf("  epoch %d (phase %d): best %.2fs over %d trials — drift confirmed at trial %d (stat %.2f)\n",
					ep.Epoch, ep.Phase, ep.BestWall, ep.Trials, ep.DriftTrial, ep.DriftStat)
			} else {
				fmt.Printf("  epoch %d (phase %d): best %.2fs over %d trials\n",
					ep.Epoch, ep.Phase, ep.BestWall, ep.Trials)
			}
		}
	}
	if res.Transfer != nil {
		x := res.Transfer
		if x.Priors > 0 {
			fmt.Printf("transfer:     warm start — %d priors from %d stored entries (nearest %q, distance %.3f)\n",
				x.Priors, x.StoreEntries, x.NearestWorkload, x.NearestDistance)
			if x.RepairedFlags > 0 {
				fmt.Printf("              %d stored flags dropped during registry repair\n", x.RepairedFlags)
			}
		} else {
			fmt.Printf("transfer:     cold start — no usable priors in the store (%d entries)\n", x.StoreEntries)
		}
		if x.Recorded {
			fmt.Printf("              winner recorded for future sessions\n")
		}
	}
	if res.Chaos != "" && res.Chaos != "none" {
		fmt.Printf("chaos:        %s\n", res.Chaos)
		fmt.Printf("resilience:   %d flakes absorbed over %d launch attempts (%d unresolved transients)\n",
			res.Flakes, res.Attempts, res.TransientFailures)
	} else if res.Flakes > 0 {
		fmt.Printf("resilience:   %d flakes absorbed over %d launch attempts\n", res.Flakes, res.Attempts)
	}
	fmt.Printf("tuning time:  %.0f virtual minutes\n", res.ElapsedMinutes)
	snap := reg.Snapshot()
	faults := 0.0
	for name, v := range snap {
		if strings.HasPrefix(name, "chaos_faults_total") {
			faults += v
		}
	}
	fmt.Printf("telemetry:    %.0f launch attempts, %.0f retries, %.0f cache hits, %.0f condemned, %.0f faults injected\n",
		snap["runner_attempts_total"], snap["runner_retries_total"],
		snap["runner_cache_hits_total"], snap["runner_condemned_total"], faults)
	fmt.Printf("winning flags:\n")
	if len(res.CommandLine) == 0 {
		fmt.Printf("  (defaults)\n")
	}
	for _, a := range res.CommandLine {
		fmt.Printf("  %s\n", a)
	}
	if tracer != nil {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "autotune: %v\n", err)
			os.Exit(1)
		}
		if err := tracer.WriteJSONL(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "autotune: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace:        %d events → %s\n", tracer.Len(), *trace)
	}
	if *converge {
		fmt.Printf("convergence (virtual minutes → best wall seconds):\n")
		for _, tp := range res.Trace {
			fmt.Printf("  %7.1f  %8.2f\n", tp.Elapsed/60, tp.BestWall)
		}
	}
	if *explain {
		contribs, err := hotspot.Explain(res, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "autotune: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("flag attribution (slowdown when reverted to default):\n")
		for _, c := range contribs {
			if !c.Reverted {
				fmt.Printf("  %-35s = %-8s (structurally required)\n", c.Name, c.Value)
				continue
			}
			fmt.Printf("  %-35s = %-8s %+6.1f%%\n", c.Name, c.Value, c.DeltaPct)
		}
	}
}
