// Membership matrix: fixed-seed sessions stay byte-identical to the
// in-process run while the fleet churns underneath them — nodes joining
// through real registration POSTs mid-hedge, draining mid-batch,
// re-registering after a flap — and while the batched transport regroups
// trials into waves of any size. Placement is transport; the session's
// bytes are the proof.
package dispatch_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/evald"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// postMembership POSTs one membership payload (register or deregister) to
// the controller's fleet endpoint and fails the test on any non-200.
func postMembership(t *testing.T, base, path string, payload any) {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", path, resp.StatusCode)
	}
}

// startEvaldNode boots one named evald node and returns its server and
// dialable address.
func startEvaldNode(t *testing.T, name string) (*httptest.Server, string) {
	t.Helper()
	ts := httptest.NewServer(evald.New(evald.Config{Node: name}))
	t.Cleanup(ts.Close)
	return ts, strings.TrimPrefix(ts.URL, "http://")
}

// dynamicFixture is a controller-side membership stack for one session: a
// dynamic pool fed by a Membership handler on a real socket.
type dynamicFixture struct {
	pool *dispatch.Pool
	base string
}

func newDynamicFixture(t *testing.T, bench string, batch int, evs ...dispatch.Evaluator) *dynamicFixture {
	t.Helper()
	pool, err := dispatch.NewDynamicPool(profileOf(t, bench), evs...)
	if err != nil {
		t.Fatal(err)
	}
	pool.Batch = batch
	pool.Telemetry = telemetry.New()
	m := dispatch.NewMembership(pool, nil)
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(ts.Close)
	return &dynamicFixture{pool: pool, base: ts.URL}
}

func (f *dynamicFixture) register(t *testing.T, name, addr string) {
	postMembership(t, f.base, dispatch.RegisterPath, &dispatch.RegisterRequest{Addr: addr, Node: name})
}

func (f *dynamicFixture) deregister(t *testing.T, name string) {
	postMembership(t, f.base, dispatch.DeregisterPath, &dispatch.DeregisterRequest{Node: name})
}

// TestDifferentialBatchedDispatch: the batched transport at several batch
// sizes against the parallel evaluation loop, byte-identical to the
// in-process session — trace, checkpoint, and outcome alike.
func TestDifferentialBatchedDispatch(t *testing.T) {
	const (
		bench  = "h2"
		seed   = int64(11)
		budget = 900.0
	)
	local := runSession(t, bench, "hillclimb", seed, budget, 3, inProcessRunner(t, bench))
	_, evs := startFleet(t, 2)
	for _, batch := range []int{1, 3, 16} {
		dist := runSession(t, bench, "hillclimb", seed, budget, 3, func(tr *telemetry.Tracer) runner.Runner {
			pool, err := dispatch.NewPool(profileOf(t, bench), evs...)
			if err != nil {
				t.Fatal(err)
			}
			pool.Batch = batch
			pool.Trace = tr
			return pool
		})
		assertIdentical(t, fmt.Sprintf("batch=%d", batch), local, dist)
	}
}

// TestJoinDuringHedgeByteIdentical: a session starts on a one-node
// dynamic fleet with straggler hedging armed; a second node registers
// itself mid-run through the real fleet endpoint. The join must widen the
// fleet without moving a byte of the outcome.
func TestJoinDuringHedgeByteIdentical(t *testing.T) {
	const (
		bench  = "fop"
		seed   = int64(31)
		budget = 600.0
	)
	local := func() string {
		s, err := core.NewSearcher("anneal")
		if err != nil {
			t.Fatal(err)
		}
		sess := &core.Session{
			Runner: inProcessRunner(t, bench)(nil), Searcher: s,
			BudgetSeconds: budget, Seed: seed, Hedge: &core.HedgePolicy{},
		}
		out, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return outcomeFingerprint(t, sess, out)
	}()

	_, addr0 := startEvaldNode(t, "m0")
	_, addr1 := startEvaldNode(t, "m1")
	fx := newDynamicFixture(t, bench, 0)
	fx.register(t, "m0", addr0)

	s, err := core.NewSearcher("anneal")
	if err != nil {
		t.Fatal(err)
	}
	joined := false
	sess := &core.Session{
		Runner: fx.pool, Searcher: s, BudgetSeconds: budget, Seed: seed,
		Hedge: &core.HedgePolicy{},
		OnProgress: func(tp core.TracePoint) {
			if !joined && tp.Trial >= 4 {
				joined = true
				fx.register(t, "m1", addr1)
			}
		},
	}
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !joined {
		t.Fatal("join never armed — session too short to prove anything")
	}
	if got := fx.pool.Nodes(); len(got) != 2 {
		t.Fatalf("fleet after join = %v, want 2 nodes", got)
	}
	if got := outcomeFingerprint(t, sess, out); got != local {
		t.Fatalf("mid-hedge join leaked into the outcome\nwith join:  %s\nin-process: %s", got, local)
	}
}

// TestDrainDuringBatchByteIdentical: a two-node fleet serving batched
// waves loses one node to a graceful drain (deregistration) while waves
// are in flight. The drained node's share salvages onto the survivor
// under the same repBase — byte-identical outcome.
func TestDrainDuringBatchByteIdentical(t *testing.T) {
	const (
		bench  = "h2"
		seed   = int64(17)
		budget = 900.0
	)
	local := func() string {
		s, err := core.NewSearcher("hillclimb")
		if err != nil {
			t.Fatal(err)
		}
		sess := &core.Session{
			Runner: inProcessRunner(t, bench)(nil), Searcher: s,
			BudgetSeconds: budget, Seed: seed, Workers: 3,
		}
		out, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return outcomeFingerprint(t, sess, out)
	}()

	_, addr0 := startEvaldNode(t, "b0")
	_, addr1 := startEvaldNode(t, "b1")
	fx := newDynamicFixture(t, bench, 8)
	fx.register(t, "b0", addr0)
	fx.register(t, "b1", addr1)

	s, err := core.NewSearcher("hillclimb")
	if err != nil {
		t.Fatal(err)
	}
	drained := false
	sess := &core.Session{
		Runner: fx.pool, Searcher: s, BudgetSeconds: budget, Seed: seed, Workers: 3,
		OnProgress: func(tp core.TracePoint) {
			if !drained && tp.Trial >= 4 {
				drained = true
				fx.deregister(t, "b1")
			}
		},
	}
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("drain never armed — session too short to prove anything")
	}
	if got := fx.pool.Nodes(); len(got) != 1 || got[0] != "b0" {
		t.Fatalf("fleet after drain = %v, want [b0]", got)
	}
	if got := outcomeFingerprint(t, sess, out); got != local {
		t.Fatalf("mid-batch drain leaked into the outcome\nwith drain: %s\nin-process: %s", got, local)
	}
}

// TestReRegisterAfterFlapByteIdentical: a node's socket dies mid-session
// (breaker quarantines it), then the node comes back at a NEW address and
// re-registers under its old name. The re-registration revives the member
// in place — and none of it moves the session's bytes.
func TestReRegisterAfterFlapByteIdentical(t *testing.T) {
	const (
		bench  = "fop"
		seed   = int64(37)
		budget = 900.0
	)
	local := func() string {
		s, err := core.NewSearcher("hierarchical")
		if err != nil {
			t.Fatal(err)
		}
		sess := &core.Session{
			Runner: inProcessRunner(t, bench)(nil), Searcher: s,
			BudgetSeconds: budget, Seed: seed,
		}
		out, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		return outcomeFingerprint(t, sess, out)
	}()

	srv0, addr0 := startEvaldNode(t, "f0")
	_, addr1 := startEvaldNode(t, "f1")
	fx := newDynamicFixture(t, bench, 0)
	fx.register(t, "f0", addr0)
	fx.register(t, "f1", addr1)

	s, err := core.NewSearcher("hierarchical")
	if err != nil {
		t.Fatal(err)
	}
	flapped, revived := false, false
	sess := &core.Session{
		Runner: fx.pool, Searcher: s, BudgetSeconds: budget, Seed: seed,
		OnProgress: func(tp core.TracePoint) {
			switch {
			case !flapped && tp.Trial >= 3:
				flapped = true
				srv0.CloseClientConnections()
				srv0.Close()
			case flapped && !revived && tp.Trial >= 6:
				revived = true
				_, again := startEvaldNode(t, "f0")
				fx.register(t, "f0", again)
			}
		},
	}
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !flapped || !revived {
		t.Fatalf("flap script incomplete: flapped=%v revived=%v", flapped, revived)
	}
	if fx.pool.Telemetry.Counter("dispatch_node_rejoined_total").Value() == 0 {
		t.Error("re-registration under a known name should count as a rejoin")
	}
	if got := fx.pool.Nodes(); len(got) != 2 {
		t.Fatalf("fleet after flap+rejoin = %v, want 2 nodes", got)
	}
	if got := outcomeFingerprint(t, sess, out); got != local {
		t.Fatalf("flap + re-register leaked into the outcome\nwith flap:  %s\nin-process: %s", got, local)
	}
}
