package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/hotspot"
	"repro/internal/dispatch"
	"repro/internal/evald"
	"repro/internal/faultinject"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/transfer"
	"repro/internal/workload"
)

// The three workloads. Each is chosen so that a different group of modules
// does most of a session's work; README.md gives the sizing behind them.
const (
	inprocSearch = "inproc-search"
	fleetBatch16 = "fleet-batch16"
	durableWarm  = "durable-warm"
)

// Workload shapes.
const (
	// traceCap matches cmd/autotune: large enough that no session drops
	// events, so trace hashes cover every event.
	traceCap = 1 << 18
	// inprocCopies is how many sessions each built-in program contributes
	// to one inproc-search cycle.
	inprocCopies = 2
	// minSessions is the fewest sessions a run measures, past --seconds if
	// need be, so that at least ten lie beyond session_ms_p90.
	minSessions = 100
	// fleetWarmUps is how many fleet sessions warm the evald node up.
	fleetWarmUps = 4
	// fleetBudgetMinutes shortens fleet-batch16 sessions (16 workers at the
	// paper's 200 minutes take ~350 ms) so a run holds enough of them for a
	// p90 with ten sessions beyond it.
	fleetBudgetMinutes = 25
	// durableBudgetMinutes shortens durable-warm sessions for the same
	// reason: every trial rewrites a checkpoint that grows with the trial
	// log, so the paper budget puts ~300 ms in each resumed session.
	durableBudgetMinutes = 100
	// durableSpecs is the number of distinct durable-warm sessions, and
	// storeEntries the size of the transfer store each one warm-starts from.
	durableSpecs = 24
	storeEntries = 1000
	// harvestSessions short tuning sessions supply the winners the store's
	// entries carry.
	harvestSessions = 24
	// durablePlan is the durable-warm chaos plan: transient launch,
	// corrupt-report and crash faults only. A hang fault really sleeps, so
	// it would time the sleep instead of the program.
	durablePlan = "launch=0.05,corrupt=0.03,crash=0.03"
)

// setupFunc builds a workload's fixture in dir from the workload seed.
type setupFunc func(dir string, seed int64, traced bool) (*fixture, error)

var workloads = map[string]setupFunc{
	inprocSearch: setupInproc,
	fleetBatch16: setupFleet,
	durableWarm:  setupDurable,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// spec is one session's generated input: a built-in program or a generated
// profile, and the session seed.
type spec struct {
	program string
	profile *workload.Profile
	seed    int64
}

func (s spec) String() string {
	if s.profile != nil {
		return fmt.Sprintf("%s/seed=%d", s.profile.Name, s.seed)
	}
	return fmt.Sprintf("%s/seed=%d", s.program, s.seed)
}

// fixture is a workload's built inputs. The session loop cycles through
// specs; options renders the production options of one session.
type fixture struct {
	kind  string
	specs []spec
	node  *evaldNode // fleet-batch16: the in-process evald node
	// durable-warm: the transfer store directory and checkpoint path the
	// sessions use, restored from the templates before every session.
	storeDir, ckptPath string
	storeTpl           map[string][]byte
	ckptTpl            [][]byte
	// refs[i] is the reference outcome of specs[i] that every session of
	// it must reproduce: the uninterrupted run for durable-warm, the
	// in-process run for fleet-batch16 (filled on first use).
	refs []*digest
}

func (f *fixture) close() {
	if f.node != nil {
		f.node.close()
	}
}

// options renders the production options of one session. Every session gets
// a fresh metrics registry and tracer: the program's own telemetry is part
// of the production shape.
func (f *fixture) options(sp spec) hotspot.Options {
	o := hotspot.Options{
		Benchmark: sp.program,
		Workload:  sp.profile,
		Seed:      sp.seed,
		Noise:     -1,
		Workers:   2,
		Telemetry: hotspot.NewMetricsRegistry(),
		Trace:     hotspot.NewTracer(traceCap),
	}
	switch f.kind {
	case fleetBatch16:
		o.Workers = 16
		o.BudgetMinutes = fleetBudgetMinutes
		o.Nodes = []string{f.node.addr}
		o.DispatchBatch = 16
	case durableWarm:
		o.BudgetMinutes = durableBudgetMinutes
		o.CheckpointPath = f.ckptPath
		o.CheckpointEveryTrials = 1
		o.Resume = true
		o.TransferDir = f.storeDir
		o.Hedge = true
		o.Quarantine = true
		o.Chaos = durablePlan
	}
	return o
}

// prepare restores session i's inputs; it runs outside the timed region.
// Without it each session's appended winner would become a later
// session's prior, and a finished checkpoint would replace the mid-session
// one.
func (f *fixture) prepare(i int) error {
	if f.kind != durableWarm {
		return nil
	}
	if err := restoreDir(f.storeDir, f.storeTpl); err != nil {
		return err
	}
	return restoreFile(f.ckptPath, f.ckptTpl[i])
}

// digest fingerprints a session's outcome: the serialized result and the
// trace's JSONL bytes.
type digest struct {
	result, trace string
}

// digestOf fingerprints a session given its result serializer
// (hotspot.Result.WriteJSON, or persist.SavedOutcome.Write for a traced
// session) and its tracer.
func digestOf(writeResult func(io.Writer) error, tr *hotspot.Tracer) (*digest, error) {
	h := sha256.New()
	if err := writeResult(h); err != nil {
		return nil, err
	}
	d := &digest{result: hex.EncodeToString(h.Sum(nil))}
	h.Reset()
	if err := tr.WriteJSONL(h); err != nil {
		return nil, err
	}
	d.trace = hex.EncodeToString(h.Sum(nil))
	return d, nil
}

// tune runs one production session, turning a panic into an error; a
// crash-point kill stays matchable as hotspot.SessionCrash.
func tune(opts hotspot.Options) (res *hotspot.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			if crash, ok := p.(hotspot.SessionCrash); ok {
				err = crash
				return
			}
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return hotspot.TuneContext(context.Background(), opts)
}

// tuneDigest runs one session and fingerprints it.
func tuneDigest(opts hotspot.Options) (*hotspot.Result, *digest, error) {
	res, err := tune(opts)
	if err != nil {
		return nil, nil, err
	}
	d, err := digestOf(res.WriteJSON, opts.Trace)
	return res, d, err
}

// drawPrograms is a seeded, stratified draw of the built-in programs: each
// appears copies times, in shuffled order, with its own session seed. The
// program mix is the same for every workload seed, so seeds move the
// sessions and not the mix.
func drawPrograms(rng *rand.Rand, copies int) []spec {
	var out []spec
	for c := 0; c < copies; c++ {
		for _, name := range workload.Names() {
			out = append(out, spec{program: name, seed: rng.Int63n(1 << 31)})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// setupInproc draws the sessions and warms the process up with one session
// of every built-in program.
func setupInproc(_ string, seed int64, _ bool) (*fixture, error) {
	f := &fixture{kind: inprocSearch, specs: drawPrograms(rand.New(rand.NewSource(seed)), inprocCopies)}
	return f, f.warmUp(workload.Names())
}

// setupFleet starts the evald node on a loopback listener inside this
// process, draws the sessions, and warms the node up with a few sessions.
func setupFleet(_ string, seed int64, traced bool) (*fixture, error) {
	node, err := startNode(traced)
	if err != nil {
		return nil, err
	}
	f := &fixture{kind: fleetBatch16, node: node, specs: drawPrograms(rand.New(rand.NewSource(seed)), 1)}
	f.refs = make([]*digest, len(f.specs))
	if err := f.warmUp(workload.Names()[:fleetWarmUps]); err != nil {
		node.close()
		return nil, err
	}
	return f, nil
}

// warmUp runs one session of each program with a fixed seed, outside the
// measured specs, so lazy initialisation is done before timing starts.
func (f *fixture) warmUp(programs []string) error {
	for _, p := range programs {
		if _, err := tune(f.options(spec{program: p})); err != nil {
			return fmt.Errorf("warm-up session %s: %w", p, err)
		}
	}
	return nil
}

// setupDurable builds the transfer store and draws the sessions over a
// panel of generated long-running services, the programs whose per-trial
// checkpoints the durability layers exist for.
func setupDurable(dir string, seed int64, _ bool) (*fixture, error) {
	plan, err := faultinject.ParsePlan(durablePlan)
	if err != nil {
		return nil, err
	}
	if plan.Hang > 0 {
		return nil, errors.New("durable-warm plan must not inject hangs: they time a sleep")
	}
	rng := rand.New(rand.NewSource(seed))
	f := &fixture{
		kind:     durableWarm,
		storeDir: filepath.Join(dir, "transfer"),
		ckptPath: filepath.Join(dir, "session.ckpt"),
	}
	if err := buildStore(f.storeDir, rng); err != nil {
		return nil, err
	}
	if f.storeTpl, err = snapshotDir(f.storeDir); err != nil {
		return nil, err
	}
	// The generated programs are a fixed panel, like the built-in programs
	// of the other workloads; the seed draws the sessions and the store.
	for i := 0; i < durableSpecs; i++ {
		prof, err := workload.Generate(workload.GenServer, int64(i))
		if err != nil {
			return nil, err
		}
		f.specs = append(f.specs, spec{profile: prof, seed: rng.Int63n(1 << 31)})
	}
	return f, nil
}

// prime prepares what the sessions are checked against and resume from,
// once per run and outside set-up: for every durable-warm session the
// uninterrupted reference run, and the checkpoint the same session leaves
// when it is killed (chaos crash-at) three quarters of the way through.
func (f *fixture) prime() error {
	if f.kind != durableWarm {
		return nil
	}
	f.refs = make([]*digest, len(f.specs))
	f.ckptTpl = make([][]byte, len(f.specs))
	for i := range f.specs {
		if err := restoreDir(f.storeDir, f.storeTpl); err != nil {
			return err
		}
		os.Remove(f.ckptPath)
		res, d, err := tuneDigest(f.options(f.specs[i]))
		if err != nil {
			return fmt.Errorf("reference session %v: %w", f.specs[i], err)
		}
		f.refs[i] = d

		if err := restoreDir(f.storeDir, f.storeTpl); err != nil {
			return err
		}
		os.Remove(f.ckptPath)
		kill := f.options(f.specs[i])
		at := res.Trials * 3 / 4
		kill.Chaos += fmt.Sprintf(",crash-at=%d", at)
		if _, err := tune(kill); !errors.As(err, new(hotspot.SessionCrash)) {
			return fmt.Errorf("session %v: expected a crash at trial %d, got %v", f.specs[i], at, err)
		}
		if f.ckptTpl[i], err = os.ReadFile(f.ckptPath); err != nil {
			return fmt.Errorf("session %v left no checkpoint: %w", f.specs[i], err)
		}
	}
	return nil
}

// buildStore fills a transfer store with storeEntries winners for generated
// workloads. The winners come from short real tuning sessions over a fixed
// panel of generated programs, so every seed's store has the same mix of
// entry sizes; each entry pairs one with a profile generated from the seed
// and scores it on that profile with the simulator, as a completed session
// would have recorded it.
func buildStore(dir string, rng *rand.Rand) error {
	kinds := workload.GenKinds()
	var winners [][]string
	for h := 0; h < harvestSessions; h++ {
		prof, err := workload.Generate(kinds[h%len(kinds)], int64(1000+h))
		if err != nil {
			return err
		}
		res, err := tune(hotspot.Options{Workload: prof, Seed: int64(h), Noise: -1, Workers: 2, BudgetMinutes: 30})
		if err != nil {
			return fmt.Errorf("harvest session: %w", err)
		}
		if args := res.Best.ExplicitArgs(); len(args) > 0 {
			winners = append(winners, args)
		}
	}
	if len(winners) == 0 {
		return errors.New("harvest found no winners")
	}
	st, err := transfer.Open(dir, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	reg := flags.NewRegistry()
	sim := jvmsim.New()
	for j := 0; st.Len() < storeEntries; j++ {
		prof, err := workload.Generate(kinds[j%len(kinds)], rng.Int63n(1<<31))
		if err != nil {
			return err
		}
		args := winners[rng.Intn(len(winners))]
		cfg, err := flags.ParseArgs(reg, args)
		if err != nil {
			return err
		}
		m := runner.EvalConfig(sim, prof, cfg, 0, 3, 0)
		if m.Failed {
			continue
		}
		err = st.Append(&transfer.Entry{
			FP: transfer.FingerprintOf(prof), Workload: prof.Name, Suite: prof.Suite,
			Searcher: "hierarchical", Objective: "throughput", Seed: int64(j), Reps: 3,
			Trials: 150, BudgetSeconds: 200 * 60, Args: args,
			Score: m.Mean, BaselineScore: sim.DefaultWall(reg, prof, 3),
		})
		if err != nil {
			return err
		}
	}
	return st.Close()
}

// snapshotDir reads every regular file of dir.
func snapshotDir(dir string) (map[string][]byte, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = b
	}
	return out, nil
}

// restoreDir makes dir hold exactly the files of tpl.
func restoreDir(dir string, tpl map[string][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if _, ok := tpl[e.Name()]; !ok {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	for name, b := range tpl {
		if err := restoreFile(filepath.Join(dir, name), b); err != nil {
			return err
		}
	}
	return nil
}

// restoreFile makes path hold tpl, durably: a session's own fsyncs must not
// pay for flushing the fixture's writes, which made session times depend on
// the disk's backlog. A file that is tpl plus appended bytes — the store
// after one session's append — is truncated back instead of rewritten.
func restoreFile(path string, tpl []byte) error {
	if cur, err := os.ReadFile(path); err == nil && len(cur) >= len(tpl) && bytes.Equal(cur[:len(tpl)], tpl) {
		if len(cur) == len(tpl) {
			return nil
		}
		return os.Truncate(path, int64(len(tpl)))
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(tpl); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// evaldNode is one evald measurement node served on a loopback listener
// inside the benchmark process.
type evaldNode struct {
	addr  string
	tel   *telemetry.Registry
	srv   *http.Server
	done  chan struct{}
	seams *handlerSeams // non-nil in traced runs
}

func startNode(traced bool) (*evaldNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &evaldNode{addr: ln.Addr().String(), tel: telemetry.New(), done: make(chan struct{})}
	var h http.Handler = evald.New(evald.Config{Node: "bench0", Telemetry: n.tel})
	if traced {
		n.seams = &handlerSeams{inner: h}
		h = n.seams
	}
	n.srv = &http.Server{Handler: h}
	go func() {
		defer close(n.done)
		n.srv.Serve(ln)
	}()
	// The node must answer before the first session dials it.
	ping, err := dispatch.NewSecureRemote(n.addr, nil)
	if err == nil {
		err = ping.Ping(context.Background())
	}
	if err != nil {
		n.close()
		return nil, fmt.Errorf("evald node: %w", err)
	}
	return n, nil
}

func (n *evaldNode) close() {
	n.srv.Close()
	<-n.done
}

// counter reads one series of a registry (0 when absent).
func counter(reg *telemetry.Registry, name string) float64 {
	return reg.Snapshot()[name]
}

// prefixSum sums every series of reg whose name starts with prefix.
func prefixSum(reg *telemetry.Registry, prefix string) float64 {
	sum := 0.0
	for k, v := range reg.Snapshot() {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// check verifies one session of spec i and returns why it failed, or "".
// Every session's best must be no worse than its default and reproduce the
// first session of the same spec; fleet-batch16 sessions must match the
// in-process run and see no re-dispatch, no-node or shed event;
// durable-warm sessions must match the uninterrupted run and see no hang.
func (f *fixture) check(i int, res *hotspot.Result, d *digest, opts hotspot.Options, first map[int]*digest, shed0 float64) string {
	if res.BestWall > res.DefaultWall {
		return fmt.Sprintf("best %.4fs is worse than default %.4fs", res.BestWall, res.DefaultWall)
	}
	if prev, ok := first[i]; !ok {
		first[i] = d
	} else if *prev != *d {
		return "outcome differs from the first session with the same inputs"
	}
	switch f.kind {
	case fleetBatch16:
		for _, name := range []string{"dispatch_redispatch_total", "dispatch_no_node_total", "dispatch_node_shed_total"} {
			if v := counter(opts.Telemetry, name); v != 0 {
				return fmt.Sprintf("%s = %g: the run would time backoff, not the program", name, v)
			}
		}
		if v := counter(f.node.tel, "evald_shed_total") - shed0; v != 0 {
			return fmt.Sprintf("evald shed %g requests", v)
		}
		if f.refs[i] == nil {
			local := f.options(f.specs[i])
			local.Nodes, local.DispatchBatch = nil, 0
			_, ref, err := tuneDigest(local)
			if err != nil {
				return "in-process reference: " + err.Error()
			}
			f.refs[i] = ref
		}
		if *f.refs[i] != *d {
			return "fleet outcome differs from the in-process run"
		}
	case durableWarm:
		if v := counter(opts.Telemetry, `chaos_faults_total{kind="hang"}`); v != 0 {
			return "the chaos plan injected a hang"
		}
		if f.refs[i].result != d.result {
			return "resumed outcome differs from the uninterrupted run"
		}
	}
	return ""
}

// runPlain is the end-to-end run: production sessions through
// hotspot.TuneContext in a closed loop, whole cycles over the specs until
// the measuring time is spent and minSessions have run. Only TuneContext is
// timed; input restores, checks and references run between sessions.
//
// The timing metrics are the process's CPU time over each session (every
// thread: session, workers, the in-process evald node, the checkpoint
// keeper, GC). On a shared host, wall time also counts the time other guests
// steal from the vCPUs, which moved wall-clock figures of the same code by
// 20-25% between runs; the wall-clock figures go to the run line instead.
func runPlain(f *fixture, d time.Duration) (*result, error) {
	res := newResult()
	var cpus, walls []float64
	specCPU := make([][]float64, len(f.specs))
	specTrials := make([]int, len(f.specs))
	var trials int
	var busy time.Duration
	var alloc uint64
	improvement := make([]float64, len(f.specs))
	first := make(map[int]*digest)
	resetPeakRSS()
	start := time.Now()
	for n := 0; time.Since(start) < d || n < minSessions || n%len(f.specs) != 0; n++ {
		i := n % len(f.specs)
		if err := f.prepare(i); err != nil {
			return nil, err
		}
		opts := f.options(f.specs[i])
		shed0 := 0.0
		if f.node != nil {
			shed0 = counter(f.node.tel, "evald_shed_total")
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := processCPU()
		t0 := time.Now()
		r, err := tune(opts)
		dt := time.Since(t0)
		dc := processCPU() - c0
		runtime.ReadMemStats(&m1)
		res.attempted++
		if err != nil {
			res.miss("%v: %v", f.specs[i], err)
			continue
		}
		ms := float64(dc) / float64(time.Millisecond)
		cpus = append(cpus, ms)
		specCPU[i] = append(specCPU[i], ms)
		specTrials[i] = r.Trials
		walls = append(walls, float64(dt)/float64(time.Millisecond))
		trials += r.Trials
		busy += dt
		alloc += m1.TotalAlloc - m0.TotalAlloc
		improvement[i] = r.ImprovementPct
		dg, err := digestOf(r.WriteJSON, opts.Trace)
		if err != nil {
			return nil, err
		}
		if why := f.check(i, r, dg, opts, first, shed0); why != "" {
			res.miss("%v: %s", f.specs[i], why)
		}
	}
	if trials == 0 {
		return nil, errors.New("no session completed")
	}
	// Throughput over one cycle at each spec's median session CPU time, so a
	// burst of host contention in one cycle does not move it.
	var cycleTrials int
	var cycleMs float64
	for i, ms := range specCPU {
		if len(ms) > 0 {
			cycleTrials += specTrials[i]
			cycleMs += quantile(ms, 0.5)
		}
	}
	res.metric("trials_per_s", float64(cycleTrials)/cycleMs*1000, "1/s")
	res.metric("session_ms_p50", quantile(cpus, 0.5), "ms")
	res.metric("session_ms_p90", quantile(cpus, 0.9), "ms")
	res.metric("improvement_pct", mean(improvement), "%")
	res.metric("alloc_kb_per_trial", float64(alloc)/1024/float64(trials), "KiB")
	res.metric("peak_rss_mb", peakRSSMB(), "MiB")
	res.info["trials"] = trials
	res.info["wall_trials_per_s"] = float64(trials) / busy.Seconds()
	res.info["wall_session_ms_p50"] = quantile(walls, 0.5)
	res.info["wall_session_ms_p90"] = quantile(walls, 0.9)
	return res, nil
}

// processCPU is the user plus system CPU time of every thread of the
// process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns memory the fixture no longer needs to the system
// and restarts the kernel's peak-RSS count, so peak_rss_mb covers the
// session loop rather than set-up. Where the reset is unsupported the peak
// covers the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
