// Differential determinism suite: the distributed evaluation plane is
// proven byte-equivalent to the in-process runner. For every built-in
// searcher, a fixed-seed session run against a fleet of real evald
// processes (httptest servers running the evald handler over sockets)
// must produce the same convergence trace, the same checkpoint file
// bytes, and the same final report as the same session run in-process.
package dispatch_test

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/evald"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// startFleet boots n evald nodes on real sockets and returns Remote
// evaluators pointed at them. Callers may close individual servers
// mid-run to simulate node death.
func startFleet(t testing.TB, n int) ([]*httptest.Server, []dispatch.Evaluator) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	evs := make([]dispatch.Evaluator, n)
	for i := range servers {
		name := "node" + string(rune('0'+i))
		ts := httptest.NewServer(evald.New(evald.Config{Node: name}))
		t.Cleanup(ts.Close)
		servers[i] = ts
		rem, err := dispatch.NewSecureRemote(strings.TrimPrefix(ts.URL, "http://"), nil)
		if err != nil {
			t.Fatal(err)
		}
		evs[i] = rem
	}
	return servers, evs
}

func profileOf(t testing.TB, bench string) *workload.Profile {
	t.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("no workload %s", bench)
	}
	return p
}

// artifacts are the byte-comparable outputs of one session.
type artifacts struct {
	fingerprint string
	trace       []byte
	ckpt        []byte
}

// runSession runs one fixed-seed session with every observable output
// captured: the structured event trace (wired to both the runner and the
// session), an every-trial checkpoint, and a flattened outcome report.
func runSession(t *testing.T, bench, searcher string, seed int64, budget float64, workers int, wire func(tr *telemetry.Tracer) runner.Runner) artifacts {
	t.Helper()
	tracer := telemetry.NewTracer(1 << 14)
	run := wire(tracer)
	s, err := core.NewSearcher(searcher)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.ckpt")
	keeper := checkpoint.NewKeeper(path, 1, nil)
	sess := &core.Session{
		Runner:        run,
		Searcher:      s,
		BudgetSeconds: budget,
		Seed:          seed,
		Workers:       workers,
		Trace:         tracer,
		Checkpoint:    keeper,
	}
	out, err := sess.Run()
	if err != nil {
		t.Fatalf("session (%s): %v", searcher, err)
	}
	if err := keeper.Close(); err != nil {
		t.Fatalf("keeper: %v", err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	var buf bytes.Buffer
	tracer.Flush()
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatalf("trace: %v", err)
	}
	return artifacts{fingerprint: outcomeFingerprint(t, sess, out), trace: buf.Bytes(), ckpt: ckpt}
}

// outcomeFingerprint flattens the deterministic parts of an outcome, and
// of the final state of the runner that measured it, for byte comparison
// (mirror of the core package's own differential helper).
func outcomeFingerprint(t *testing.T, sess *core.Session, out *core.Outcome) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Workload, Searcher, BestKey    string
		DefaultWall, BestWall, Elapsed float64
		Trials, Failures, CacheHits    int
		Flakes, Attempts, Transients   int
		Degraded                       bool
		Trace                          []core.TracePoint
		State                          runner.StateSegment
		BaseM, BestM                   runner.Measurement
		ImprovementPct, Speedup        float64
	}{
		Workload: out.Workload, Searcher: out.Searcher, BestKey: out.Best.Key(),
		DefaultWall: out.DefaultWall, BestWall: out.BestWall, Elapsed: out.Elapsed,
		Trials: out.Trials, Failures: out.Failures, CacheHits: out.CacheHits,
		Flakes: out.Flakes, Attempts: out.Attempts, Transients: out.TransientFailures,
		Degraded: out.Degraded,
		Trace:    out.Trace, State: finalRunnerState(t, sess.Runner),
		BaseM: out.BaseMeasurement, BestM: out.BestMeasurement,
		ImprovementPct: out.ImprovementPct, Speedup: out.Speedup,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// finalRunnerState folds r's state stream into the values it ends with:
// the clock, and per configuration key the noise reps drawn, the launches
// counted and the memoized verdict.
func finalRunnerState(t *testing.T, r runner.Runner) runner.StateSegment {
	t.Helper()
	stream, err := r.(runner.StateSnapshotter).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	segs, err := runner.DecodeState(stream)
	if err != nil {
		t.Fatal(err)
	}
	final := runner.StateSegment{Reps: map[string]int{}, Cache: map[string]runner.Measurement{},
		Launches: map[string]int{}}
	for _, seg := range segs {
		final.Elapsed = seg.Elapsed
		maps.Copy(final.Reps, seg.Reps)
		maps.Copy(final.Cache, seg.Cache)
		maps.Copy(final.Launches, seg.Launches)
	}
	return final
}

func inProcessRunner(t *testing.T, bench string) func(tr *telemetry.Tracer) runner.Runner {
	return func(tr *telemetry.Tracer) runner.Runner {
		ip := runner.NewInProcess(jvmsim.New(), profileOf(t, bench))
		ip.Trace = tr
		return ip
	}
}

func poolRunner(t *testing.T, bench string, evs []dispatch.Evaluator) func(tr *telemetry.Tracer) runner.Runner {
	return func(tr *telemetry.Tracer) runner.Runner {
		pool, err := dispatch.NewPool(profileOf(t, bench), evs...)
		if err != nil {
			t.Fatal(err)
		}
		pool.Trace = tr
		return pool
	}
}

func assertIdentical(t *testing.T, label string, local, dist artifacts) {
	t.Helper()
	if dist.fingerprint != local.fingerprint {
		t.Errorf("%s: outcome diverged\ndistributed: %s\nin-process:  %s", label, dist.fingerprint, local.fingerprint)
	}
	if !bytes.Equal(dist.trace, local.trace) {
		t.Errorf("%s: event traces diverged (%d vs %d bytes)", label, len(dist.trace), len(local.trace))
	}
	if !bytes.Equal(dist.ckpt, local.ckpt) {
		t.Errorf("%s: checkpoint files diverged (%d vs %d bytes)", label, len(dist.ckpt), len(local.ckpt))
	}
}

// TestDifferentialSearcherMatrix is the headline equivalence proof: every
// built-in searcher, fixed seed, in-process vs two local evald processes.
func TestDifferentialSearcherMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is socket-heavy")
	}
	const (
		bench  = "fop"
		seed   = int64(42)
		budget = 600.0
	)
	_, evs := startFleet(t, 2)
	for _, searcher := range core.SearcherNames() {
		searcher := searcher
		t.Run(searcher, func(t *testing.T) {
			local := runSession(t, bench, searcher, seed, budget, 1, inProcessRunner(t, bench))
			dist := runSession(t, bench, searcher, seed, budget, 1, poolRunner(t, bench, evs))
			assertIdentical(t, searcher, local, dist)
		})
	}
}

// TestDifferentialParallelWorkers holds equivalence under the parallel
// evaluation loop, where trials are genuinely concurrent on the fleet.
func TestDifferentialParallelWorkers(t *testing.T) {
	const (
		bench  = "h2"
		seed   = int64(7)
		budget = 900.0
	)
	_, evs := startFleet(t, 3)
	local := runSession(t, bench, "hillclimb", seed, budget, 3, inProcessRunner(t, bench))
	dist := runSession(t, bench, "hillclimb", seed, budget, 3, poolRunner(t, bench, evs))
	assertIdentical(t, "hillclimb/3-workers", local, dist)
}
