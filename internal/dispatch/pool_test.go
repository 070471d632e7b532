package dispatch

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func poolProfile(t testing.TB, name string) *workload.Profile {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return p
}

// fakeEval scripts an Evaluator for fault scenarios.
type fakeEval struct {
	name string
	fn   func(req *TrialRequest) (*TrialResult, error)
}

func (f *fakeEval) Name() string { return f.name }
func (f *fakeEval) Evaluate(_ context.Context, req *TrialRequest) (*TrialResult, error) {
	return f.fn(req)
}

// pingableEval is a fakeEval whose liveness is probed by heartbeats.
type pingableEval struct {
	fakeEval
	ping func() error
}

func (p *pingableEval) Ping(context.Context) error { return p.ping() }

func newTestPool(t testing.TB, bench string, evs ...Evaluator) *Pool {
	t.Helper()
	p, err := NewPool(poolProfile(t, bench), evs...)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	p.Telemetry = telemetry.New()
	return p
}

// TestPoolMatchesInProcess is the core determinism claim at unit scale:
// the same sequence of Measure calls against a fleet of Local evaluators
// and against runner.InProcess produces identical measurements, identical
// virtual clocks, and byte-identical snapshot state.
func TestPoolMatchesInProcess(t *testing.T) {
	prof := poolProfile(t, "fop")
	reg := flags.NewRegistry()
	ip := runner.NewInProcess(jvmsim.New(), prof)
	pool := newTestPool(t, "fop",
		NewLocal(prof, "n0"), NewLocal(prof, "n1"), NewLocal(prof, "n2"))

	base := flags.NewConfig(reg)
	heap := flags.NewConfig(reg)
	heap.SetInt("MaxHeapSize", 1<<30)
	g1 := flags.NewConfig(reg)
	g1.SetBool("UseG1GC", true)

	// Defaults, a cache hit, a rep upgrade, and two more configs.
	calls := []struct {
		cfg  *flags.Config
		reps int
	}{
		{base, 1}, {base.Clone(), 1}, {base.Clone(), 3},
		{heap, 2}, {g1, 2}, {heap.Clone(), 2},
	}
	for i, c := range calls {
		want := ip.Measure(c.cfg, c.reps)
		got := pool.Measure(c.cfg, c.reps)
		if got.Key != want.Key || got.Mean != want.Mean || got.CostSeconds != want.CostSeconds ||
			got.FromCache != want.FromCache || got.Failed != want.Failed {
			t.Fatalf("call %d: pool %+v != in-process %+v", i, got, want)
		}
		if len(got.Walls) != len(want.Walls) {
			t.Fatalf("call %d: wall count %d != %d", i, len(got.Walls), len(want.Walls))
		}
		for j := range got.Walls {
			if got.Walls[j] != want.Walls[j] {
				t.Fatalf("call %d rep %d: wall %v != %v", i, j, got.Walls[j], want.Walls[j])
			}
		}
	}
	if pool.Elapsed() != ip.Elapsed() {
		t.Fatalf("virtual clocks diverged: pool %v, in-process %v", pool.Elapsed(), ip.Elapsed())
	}

	ps, err := pool.SnapshotState()
	if err != nil {
		t.Fatalf("pool snapshot: %v", err)
	}
	is, err := ip.SnapshotState()
	if err != nil {
		t.Fatalf("in-process snapshot: %v", err)
	}
	if !bytes.Equal(ps, is) {
		t.Fatalf("snapshot state diverged:\npool: %s\nin-process: %s", ps, is)
	}
	if fp := pool.DeterminismFingerprint(); fp != "*runner.InProcess" {
		t.Fatalf("fingerprint %q; checkpoints would not move between runners", fp)
	}
}

// TestPoolRedispatchOnDeadNode: a node that always fails placements is
// invisible to the measurement — the trial lands on the survivor with no
// retry accounting and no extra virtual cost.
func TestPoolRedispatchOnDeadNode(t *testing.T) {
	prof := poolProfile(t, "fop")
	dead := &fakeEval{name: "dead", fn: func(*TrialRequest) (*TrialResult, error) {
		return nil, &NodeError{Node: "dead", Err: errors.New("connection refused")}
	}}
	pool := newTestPool(t, "fop", dead, NewLocal(prof, "live"))

	ip := runner.NewInProcess(jvmsim.New(), prof)
	cfg := flags.NewConfig(flags.NewRegistry())
	want := ip.Measure(cfg, 2)
	got := pool.Measure(cfg, 2)
	if got.Failed {
		t.Fatalf("measurement failed despite a live node: %+v", got)
	}
	if got.Attempts != 1 || got.Flakes != 0 {
		t.Fatalf("node death leaked into retry accounting: attempts=%d flakes=%d", got.Attempts, got.Flakes)
	}
	if got.Mean != want.Mean || got.CostSeconds != want.CostSeconds {
		t.Fatalf("re-dispatched measurement diverged: %+v != %+v", got, want)
	}
	if v := pool.Telemetry.Counter("dispatch_redispatch_total").Value(); v == 0 && pool.nodes[shardOf(cfg.Key(), 2)].name == "dead" {
		t.Error("expected a re-dispatch when the shard owner is dead")
	}
}

// TestPoolAllNodesDead: with no reachable node the trial surfaces as a
// transient NodeDownFailure — never cached, so a recovered fleet gets to
// re-measure it.
func TestPoolAllNodesDead(t *testing.T) {
	down := func(name string) *fakeEval {
		return &fakeEval{name: name, fn: func(*TrialRequest) (*TrialResult, error) {
			return nil, &NodeError{Node: name, Err: errors.New("no route to host")}
		}}
	}
	pool := newTestPool(t, "fop", down("a"), down("b"))
	cfg := flags.NewConfig(flags.NewRegistry())
	m := pool.Measure(cfg, 1)
	if !m.Failed || m.Failure != runner.NodeDownFailure {
		t.Fatalf("expected node-down failure, got %+v", m)
	}
	if !m.Transient {
		t.Fatal("fleet-wide exhaustion must stay transient — the config is not condemned")
	}
	if again := pool.Measure(cfg, 1); again.FromCache {
		t.Fatal("transient node-down verdicts must not be cached")
	}
	if pool.Telemetry.Counter("dispatch_no_node_total").Value() == 0 {
		t.Error("exhausted placements should be counted")
	}
}

// TestPoolPermanentRejection: a protocol-level refusal condemns the trial
// deterministically — it is cached and carries NodeRejectedFailure.
func TestPoolPermanentRejection(t *testing.T) {
	rej := &fakeEval{name: "strict", fn: func(req *TrialRequest) (*TrialResult, error) {
		return nil, &NodeError{Node: "strict", Status: 400, Code: CodeBadFlag, Permanent: true,
			Err: errors.New("unknown flag")}
	}}
	pool := newTestPool(t, "fop", rej)
	cfg := flags.NewConfig(flags.NewRegistry())
	m := pool.Measure(cfg, 1)
	if !m.Failed || m.Failure != runner.NodeRejectedFailure {
		t.Fatalf("expected node-rejected failure, got %+v", m)
	}
	if m.Transient {
		t.Fatal("a rejection every node would repeat is not transient")
	}
	if again := pool.Measure(cfg, 1); !again.FromCache {
		t.Fatal("deterministic rejections should be cached like any failure")
	}
}

// TestPoolQuarantineAndRevive drives one node through the circuit
// breaker with an injected clock: consecutive failures quarantine it
// behind a doubling cooldown, a successful placement after the cooldown
// revives it.
func TestPoolQuarantineAndRevive(t *testing.T) {
	prof := poolProfile(t, "fop")
	broken := true
	local := NewLocal(prof, "flaky")
	flaky := &fakeEval{name: "flaky", fn: func(req *TrialRequest) (*TrialResult, error) {
		if broken {
			return nil, &NodeError{Node: "flaky", Err: errors.New("reset by peer")}
		}
		return local.Evaluate(context.Background(), req)
	}}
	pool := newTestPool(t, "fop", flaky)
	pool.MaxTries = 3 // one Measure attempt = 3 placements = quarantine threshold
	pool.Retry = runner.RetryPolicy{MaxAttempts: 1}
	clock := time.Unix(1000, 0)
	pool.now = func() time.Time { return clock }

	cfg := flags.NewConfig(flags.NewRegistry())
	if m := pool.Measure(cfg, 1); !m.Failed || m.Failure != runner.NodeDownFailure {
		t.Fatalf("expected exhaustion, got %+v", m)
	}
	nd := pool.nodes[0]
	if !nd.dead || nd.until.IsZero() {
		t.Fatalf("3 consecutive failures should quarantine: dead=%v until=%v", nd.dead, nd.until)
	}
	if pool.Telemetry.Counter("dispatch_node_quarantined_total").Value() != 1 {
		t.Error("quarantine should be counted once")
	}

	// Still inside the cooldown the node is only reachable via forced
	// probes (it is the whole fleet); past the cooldown it is a regular
	// half-open candidate. Either way a success revives it.
	broken = false
	clock = clock.Add(time.Minute)
	if m := pool.Measure(cfg, 1); m.Failed {
		t.Fatalf("revived node should serve: %+v", m)
	}
	if nd.dead || !nd.until.IsZero() || nd.fails != 0 {
		t.Fatalf("success should reset the breaker: %+v", nd)
	}
	if pool.Telemetry.Counter("dispatch_node_revived_total").Value() != 1 {
		t.Error("revival should be counted")
	}
}

// TestPoolCooldownDoubles checks the quarantine backoff shape.
func TestPoolCooldownDoubles(t *testing.T) {
	want := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second}
	for r, w := range want {
		if d := nodeCooldown(r); d != w {
			t.Errorf("cooldown(%d) = %v, want %v", r, d, w)
		}
	}
	if d := nodeCooldown(40); d != 15*time.Second {
		t.Errorf("cooldown cap = %v, want 15s", d)
	}
}

// TestPoolWorkStealing: an idle fleet places on the key's shard owner;
// a loaded shard owner loses the trial to the least-loaded node.
func TestPoolWorkStealing(t *testing.T) {
	prof := poolProfile(t, "fop")
	pool := newTestPool(t, "fop", NewLocal(prof, "n0"), NewLocal(prof, "n1"), NewLocal(prof, "n2"))
	key := "some-trial-key"
	owner := pool.nodes[shardOf(key, len(pool.nodes))]

	nd := pool.acquire(key)
	if nd != owner {
		t.Fatalf("idle fleet placed %q on %s, want shard owner %s", key, nd.name, owner.name)
	}
	pool.settle(nd, true)

	// Load the shard owner: the trial must be stolen by an idle node.
	owner.inflight = 4
	nd = pool.acquire(key)
	if nd == owner {
		t.Fatal("loaded shard owner should lose the trial to an idle node")
	}
	pool.settle(nd, true)
	owner.inflight = 0
}

// TestPoolHeartbeatProbes: a probe failure advances the breaker, a probe
// success revives a quarantined node without waiting for a placement.
func TestPoolHeartbeatProbes(t *testing.T) {
	pingErr := errors.New("down")
	pe := &pingableEval{
		fakeEval: fakeEval{name: "remote", fn: func(*TrialRequest) (*TrialResult, error) {
			return nil, &NodeError{Node: "remote", Err: errors.New("down")}
		}},
		ping: func() error { return pingErr },
	}
	pool := newTestPool(t, "fop", pe)
	clock := time.Unix(1000, 0)
	pool.now = func() time.Time { return clock }

	for i := 0; i < 3; i++ {
		pool.Probe(context.Background())
	}
	if nd := pool.nodes[0]; !nd.dead {
		t.Fatal("3 failed probes should quarantine the node")
	}
	pingErr = nil
	pool.Probe(context.Background())
	if nd := pool.nodes[0]; nd.dead || !nd.until.IsZero() {
		t.Fatal("a successful probe should revive the node")
	}
	if pool.Telemetry.Counter("dispatch_heartbeats_total").Value() != 4 {
		t.Error("probes should be counted")
	}
}

// TestPoolStateRoundTrip: snapshot from one pool restores into a fresh
// pool, cache and clock intact.
func TestPoolStateRoundTrip(t *testing.T) {
	prof := poolProfile(t, "fop")
	a := newTestPool(t, "fop", NewLocal(prof, "n"))
	cfg := flags.NewConfig(flags.NewRegistry())
	m := a.Measure(cfg, 2)
	state, err := a.SnapshotState()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	b := newTestPool(t, "fop", NewLocal(prof, "n"))
	if err := b.RestoreState(state); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if b.Elapsed() != a.Elapsed() {
		t.Fatalf("restored clock %v != %v", b.Elapsed(), a.Elapsed())
	}
	got := b.Measure(cfg, 2)
	if !got.FromCache || got.Mean != m.Mean {
		t.Fatalf("restored cache should replay: %+v", got)
	}
}

// TestPoolRejectsBadFleets covers constructor validation.
func TestPoolRejectsBadFleets(t *testing.T) {
	prof := poolProfile(t, "fop")
	if _, err := NewPool(prof); err == nil {
		t.Error("empty fleet should be rejected")
	}
	if _, err := NewPool(nil, NewLocal(prof, "n")); err == nil {
		t.Error("nil profile should be rejected")
	}
	if _, err := NewPool(prof, NewLocal(prof, "n"), NewLocal(prof, "n")); err == nil {
		t.Error("duplicate node names should be rejected")
	}
}

// TestPoolFaultHookInjectsNodeDeath: the chaos seam forces placement
// failures without any evaluator involvement.
func TestPoolFaultHookInjectsNodeDeath(t *testing.T) {
	prof := poolProfile(t, "fop")
	served := 0
	local := NewLocal(prof, "n")
	counting := &fakeEval{name: "n", fn: func(req *TrialRequest) (*TrialResult, error) {
		served++
		return local.Evaluate(context.Background(), req)
	}}
	pool := newTestPool(t, "fop", counting)
	pool.FaultHook = func(node, key string, try int) bool { return try == 0 }

	m := pool.Measure(flags.NewConfig(flags.NewRegistry()), 1)
	if m.Failed {
		t.Fatalf("second placement should land: %+v", m)
	}
	if served != 1 {
		t.Fatalf("evaluator ran %d times; the injected death must not reach it", served)
	}
	if pool.Telemetry.Counter("dispatch_injected_node_down_total").Value() != 1 {
		t.Error("injected fault should be counted")
	}
}
