// Node-kill matrix: sessions survive evald node deaths — real socket
// closes and injected flaps alike — by silent re-dispatch, degrading to
// best-so-far only when the whole fleet is gone, without losing or
// double-counting a trial.
package dispatch_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/faultinject"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// TestKillOneNodeByteIdentical kills one of three nodes mid-session (a
// real socket close with trials still to come) and demands the session's
// bytes be indistinguishable from the in-process run: re-dispatch is
// invisible to the virtual economy.
func TestKillOneNodeByteIdentical(t *testing.T) {
	const (
		bench  = "fop"
		seed   = int64(19)
		budget = 600.0
	)
	servers, evs := startFleet(t, 3)
	local := runSession(t, bench, "hierarchical", seed, budget, 1, inProcessRunner(t, bench))

	tracer := telemetry.NewTracer(1 << 14)
	pool, err := dispatch.NewPool(profileOf(t, bench), evs...)
	if err != nil {
		t.Fatal(err)
	}
	pool.Trace = tracer
	s, err := core.NewSearcher("hierarchical")
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	sess := &core.Session{
		Runner: pool, Searcher: s, BudgetSeconds: budget, Seed: seed,
		Trace: tracer,
		OnProgress: func(tp core.TracePoint) {
			if !killed && tp.Trial >= 4 {
				killed = true
				servers[1].CloseClientConnections()
				servers[1].Close()
			}
		},
	}
	out, err := sess.Run()
	if err != nil {
		t.Fatalf("session with killed node: %v", err)
	}
	if !killed {
		t.Fatal("kill never armed — session too short to prove anything")
	}
	if got, want := outcomeFingerprint(t, sess, out), local.fingerprint; got != want {
		t.Fatalf("node death leaked into the outcome\nwith kill:  %s\nin-process: %s", got, want)
	}
}

// TestKillAllNodesDegradesToBestSoFar closes the whole fleet mid-session:
// every further trial exhausts placement as a transient node-down
// failure, and the session ends degraded with the best-so-far answer —
// trials neither lost nor double-counted.
func TestKillAllNodesDegradesToBestSoFar(t *testing.T) {
	const (
		bench  = "fop"
		seed   = int64(5)
		budget = 3000.0
	)
	servers, evs := startFleet(t, 2)
	pool, err := dispatch.NewPool(profileOf(t, bench), evs...)
	if err != nil {
		t.Fatal(err)
	}
	pool.MaxTries = 4 // keep exhaustion cheap against closed sockets
	s, err := core.NewSearcher("hillclimb")
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	sess := &core.Session{
		Runner: pool, Searcher: s, BudgetSeconds: budget, Seed: seed,
		MaxTrials: 12,
		OnProgress: func(tp core.TracePoint) {
			if !killed && tp.Trial >= 3 {
				killed = true
				for _, ts := range servers {
					ts.CloseClientConnections()
					ts.Close()
				}
			}
		},
	}
	out, err := sess.Run()
	if err != nil {
		t.Fatalf("session should degrade, not error: %v", err)
	}
	if !killed {
		t.Fatal("fleet kill never armed")
	}
	if out.Best == nil {
		t.Fatal("degraded session should still carry the best-so-far config")
	}
	if out.TransientFailures == 0 {
		t.Error("trials against a dead fleet should surface as transient failures")
	}
	seen := make(map[int]bool)
	for _, tp := range out.Trace {
		if seen[tp.Trial] {
			t.Fatalf("trial %d observed twice — double-counted across the fleet death", tp.Trial)
		}
		seen[tp.Trial] = true
	}
}

// TestNodeFlapsDuringHedgeByteIdentical runs the full robustness stack —
// straggler hedging under the chaos layer's "node-flaps" scenario, whose
// node-down component flaps placements through the dispatch FaultHook —
// and demands byte-identity with the in-process run under the same plan.
// Injected node deaths re-dispatch at zero virtual cost, so the hedged,
// straggling, flapping session reads exactly like the local one.
func TestNodeFlapsDuringHedgeByteIdentical(t *testing.T) {
	const (
		bench  = "fop"
		seed   = int64(23)
		budget = 900.0
	)
	plan, err := faultinject.ParsePlan("node-flaps")
	if err != nil {
		t.Fatal(err)
	}
	if plan.NodeDown <= 0 || plan.Straggle <= 0 {
		t.Fatalf("node-flaps scenario lost its faults: %+v", plan)
	}

	run := func(wrap func() runner.Runner) string {
		s, err := core.NewSearcher("anneal")
		if err != nil {
			t.Fatal(err)
		}
		chaos := faultinject.New(wrap(), plan, seed)
		sess := &core.Session{
			Runner: chaos, Searcher: s, BudgetSeconds: budget, Seed: seed,
			Hedge: &core.HedgePolicy{},
		}
		out, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return outcomeFingerprint(t, sess, out)
	}

	local := run(func() runner.Runner {
		return runner.NewInProcess(jvmsim.New(), profileOf(t, bench))
	})
	_, evs := startFleet(t, 3)
	dist := run(func() runner.Runner {
		pool, err := dispatch.NewPool(profileOf(t, bench), evs...)
		if err != nil {
			t.Fatal(err)
		}
		pool.FaultHook = plan.NodeDownHook(seed)
		return pool
	})
	if dist != local {
		t.Fatalf("flapping fleet diverged from in-process chaos run\ndistributed: %s\nin-process:  %s", dist, local)
	}
}
