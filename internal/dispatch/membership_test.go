package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// localDial wires a Membership to in-process evaluators: registrations
// "dial" a Local instead of a socket, so the registry's lifecycle is
// testable without HTTP servers behind it.
func localDial(t testing.TB, bench string) func(name, addr string) (Evaluator, error) {
	t.Helper()
	prof := poolProfile(t, bench)
	return func(name, _ string) (Evaluator, error) {
		return NewLocal(prof, name), nil
	}
}

func newDynamicTestPool(t testing.TB, bench string, evs ...Evaluator) *Pool {
	t.Helper()
	p, err := NewDynamicPool(poolProfile(t, bench), evs...)
	if err != nil {
		t.Fatalf("NewDynamicPool: %v", err)
	}
	p.Telemetry = telemetry.New()
	return p
}

func postJSON(t *testing.T, h http.Handler, path string, payload any, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestMembershipGrantsAskedLease: the controller grants the lease a node
// asks for, up to MaxLeaseSeconds, so a node renewing every 20 s with a
// 60 s lease is not evicted between renewals; one that asks for none gets
// the 15 s default.
func TestMembershipGrantsAskedLease(t *testing.T) {
	m := NewMembership(newDynamicTestPool(t, "fop"), nil)
	m.Dial = localDial(t, "fop")
	h := m.Handler()
	for _, tc := range []struct{ asked, want int }{{60, 60}, {0, 15}} {
		w := postJSON(t, h, RegisterPath, &RegisterRequest{Addr: "10.0.0.1:1", Node: "n1", TTLSeconds: tc.asked}, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("register asking %d s: %d %s", tc.asked, w.Code, w.Body)
		}
		var resp RegisterResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.LeaseSeconds != tc.want {
			t.Fatalf("asked for %d s, granted lease_seconds %d, want %d", tc.asked, resp.LeaseSeconds, tc.want)
		}
	}
}

// TestMembershipRegisterRenewDrainExpire walks one node through the whole
// membership lifecycle: register (join), re-register (lease renewal, no
// duplicate), deregister (drain, immediate removal), and a second node
// whose silence expires its lease.
func TestMembershipRegisterRenewDrainExpire(t *testing.T) {
	pool := newDynamicTestPool(t, "fop")
	m := NewMembership(pool, nil)
	m.Dial = localDial(t, "fop")
	m.Telemetry = pool.Telemetry
	h := m.Handler()

	// Join.
	w := postJSON(t, h, RegisterPath, &RegisterRequest{Addr: "10.0.0.1:1", Node: "n1", TTLSeconds: 10}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	var resp RegisterResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Node != "n1" || resp.LeaseSeconds <= 0 {
		t.Fatalf("bogus lease grant: %+v", resp)
	}
	if got := pool.Nodes(); len(got) != 1 || got[0] != "n1" {
		t.Fatalf("pool after join: %v", got)
	}

	// Renewal must not duplicate the node.
	w = postJSON(t, h, RegisterPath, &RegisterRequest{Addr: "10.0.0.1:1", Node: "n1", TTLSeconds: 10}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("renewal: %d %s", w.Code, w.Body)
	}
	if got := pool.Nodes(); len(got) != 1 {
		t.Fatalf("renewal duplicated the node: %v", got)
	}

	// A second node joins, then goes silent: Expire reaps only it.
	postJSON(t, h, RegisterPath, &RegisterRequest{Addr: "10.0.0.2:1", Node: "n2", TTLSeconds: 5}, nil)
	if got := pool.Nodes(); len(got) != 2 {
		t.Fatalf("pool after second join: %v", got)
	}
	gone := m.Expire(time.Now().Add(7 * time.Second))
	if len(gone) != 1 || gone[0] != "n2" {
		t.Fatalf("expire reaped %v, want [n2]", gone)
	}
	if got := pool.Nodes(); len(got) != 1 || got[0] != "n1" {
		t.Fatalf("pool after expiry: %v", got)
	}

	// Drain: immediate removal, no lease wait.
	w = postJSON(t, h, DeregisterPath, &DeregisterRequest{Node: "n1"}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("deregister: %d %s", w.Code, w.Body)
	}
	if got := pool.Nodes(); len(got) != 0 {
		t.Fatalf("pool after drain: %v", got)
	}
	if pool.Telemetry.Counter("dispatch_membership_drains_total").Value() != 1 {
		t.Error("drain should be counted")
	}
	if pool.Telemetry.Counter("dispatch_membership_expired_total").Value() != 1 {
		t.Error("expiry should be counted")
	}
}

// TestMembershipAuthFailClosed: with a token configured, registration and
// deregistration without (or with wrong) credentials are 401
// CodeUnauthorized envelopes and change nothing — an unknown peer cannot
// vote itself into, or a victim out of, the fleet.
func TestMembershipAuthFailClosed(t *testing.T) {
	pool := newDynamicTestPool(t, "fop")
	m := NewMembership(pool, &Security{Token: "s3cret"})
	m.Dial = localDial(t, "fop")
	h := m.Handler()

	reg := &RegisterRequest{Addr: "10.0.0.1:1", Node: "mallory"}
	for _, hdr := range []map[string]string{
		nil,
		{"Authorization": "Bearer wrong"},
		{"Authorization": "s3cret"}, // missing Bearer prefix
	} {
		w := postJSON(t, h, RegisterPath, reg, hdr)
		if w.Code != http.StatusUnauthorized {
			t.Fatalf("register with %v: %d, want 401", hdr, w.Code)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Code != CodeUnauthorized {
			t.Fatalf("401 without a CodeUnauthorized envelope: %s", w.Body)
		}
		if len(pool.Nodes()) != 0 {
			t.Fatal("unauthenticated registration mutated the fleet")
		}
	}

	// The right token is accepted; then a credential-less drain of the
	// legitimate node must bounce.
	w := postJSON(t, h, RegisterPath, reg, map[string]string{"Authorization": "Bearer s3cret"})
	if w.Code != http.StatusOK {
		t.Fatalf("authorized register: %d %s", w.Code, w.Body)
	}
	w = postJSON(t, h, DeregisterPath, &DeregisterRequest{Node: "mallory"}, nil)
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated deregister: %d, want 401", w.Code)
	}
	if len(pool.Nodes()) != 1 {
		t.Fatal("unauthenticated deregistration mutated the fleet")
	}
}

// TestJoinerLifecycle drives the evald-side client against a real
// controller endpoint: register joins the pool, deregister drains it
// immediately — the node never waits out a heartbeat or lease timeout.
func TestJoinerLifecycle(t *testing.T) {
	pool := newDynamicTestPool(t, "fop")
	m := NewMembership(pool, &Security{Token: "tok"})
	m.Dial = localDial(t, "fop")
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	j := &Joiner{Controller: ts.URL, Advertise: "10.9.9.9:1", Node: "joiner", Sec: &Security{Token: "tok"}}
	if err := j.Register(context.Background()); err != nil {
		t.Fatalf("register: %v", err)
	}
	if got := pool.Nodes(); len(got) != 1 || got[0] != "joiner" {
		t.Fatalf("pool after join: %v", got)
	}
	if err := j.Deregister(context.Background()); err != nil {
		t.Fatalf("deregister: %v", err)
	}
	if got := pool.Nodes(); len(got) != 0 {
		t.Fatalf("drain should remove the node immediately: %v", got)
	}

	// Wrong token: both directions bounce.
	bad := &Joiner{Controller: ts.URL, Advertise: "10.9.9.9:2", Node: "evil", Sec: &Security{Token: "nope"}}
	if err := bad.Register(context.Background()); err == nil {
		t.Fatal("register with wrong token should fail")
	}
	if len(pool.Nodes()) != 0 {
		t.Fatal("rejected registration mutated the fleet")
	}
}

// TestJoinerRefusesIntervalPastLeaseLimit: a join interval whose lease
// (3x the interval) no controller grants is refused by the Joiner itself,
// naming the interval, before any request is sent — Register returns it,
// and Run returns it at once instead of retrying every tick. An interval
// at the bound joins a real controller.
func TestJoinerRefusesIntervalPastLeaseLimit(t *testing.T) {
	pool := newDynamicTestPool(t, "fop")
	m := NewMembership(pool, nil)
	m.Dial = localDial(t, "fop")
	var requests atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		m.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j := &Joiner{Controller: ts.URL, Advertise: "10.9.9.9:1", Node: "slow", Interval: 21 * time.Minute}
	if err := j.Register(ctx); err == nil || !strings.Contains(err.Error(), "21m0s") {
		t.Fatalf("register = %v, want an error naming the 21m0s interval", err)
	}
	ran := make(chan error, 1)
	go func() { ran <- j.Run(ctx) }()
	select {
	case err := <-ran:
		if err == nil || !strings.Contains(err.Error(), "21m0s") {
			t.Fatalf("run = %v, want an error naming the 21m0s interval", err)
		}
	case <-ctx.Done():
		t.Fatal("run kept waiting to retry an interval no controller admits")
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("the refused joiner sent %d requests", n)
	}

	j.Interval = MaxJoinInterval
	if err := j.Register(ctx); err != nil {
		t.Fatalf("register at the bound: %v", err)
	}
	if got := pool.Nodes(); len(got) != 1 || got[0] != "slow" {
		t.Fatalf("pool after a join at the bound: %v", got)
	}
}

// TestDynamicPoolJoinGraceWait: a dynamic pool whose fleet is momentarily
// empty waits for the first join instead of failing the trial — and the
// measurement that eventually lands is byte-identical to in-process.
func TestDynamicPoolJoinGraceWait(t *testing.T) {
	prof := poolProfile(t, "fop")
	pool := newDynamicTestPool(t, "fop")
	pool.JoinGrace = 5 * time.Second

	go func() {
		time.Sleep(50 * time.Millisecond)
		pool.Join(NewLocal(prof, "latecomer"), "latecomer")
	}()

	ip := runner.NewInProcess(jvmsim.New(), prof)
	cfg := flags.NewConfig(flags.NewRegistry())
	want := ip.Measure(cfg, 2)
	got := pool.Measure(cfg, 2)
	if got.Failed {
		t.Fatalf("trial failed despite a node joining within grace: %+v", got)
	}
	if got.Mean != want.Mean || got.CostSeconds != want.CostSeconds {
		t.Fatalf("late-join measurement diverged: %+v != %+v", got, want)
	}
	if pool.Elapsed() != ip.Elapsed() {
		t.Fatalf("join-grace wait leaked into the virtual clock: %v != %v", pool.Elapsed(), ip.Elapsed())
	}
}

// TestDynamicPoolJoinGraceExpires: no node ever joins, so the trial
// surfaces as the usual transient NodeDownFailure once the grace lapses.
func TestDynamicPoolJoinGraceExpires(t *testing.T) {
	pool := newDynamicTestPool(t, "fop")
	pool.JoinGrace = 50 * time.Millisecond
	pool.MaxTries = 2
	m := pool.Measure(flags.NewConfig(flags.NewRegistry()), 1)
	if !m.Failed || m.Failure != runner.NodeDownFailure {
		t.Fatalf("empty dynamic fleet should exhaust as node-down: %+v", m)
	}
	if !m.Transient {
		t.Fatal("an empty fleet is transient — nodes may still join")
	}
}

// TestPoolJoinRevivesFlappedNode: re-registration under a known name is
// the node's proof of life — the breaker resets and the fresh evaluator
// replaces the dead one.
func TestPoolJoinRevivesFlappedNode(t *testing.T) {
	prof := poolProfile(t, "fop")
	broken := &fakeEval{name: "flappy", fn: func(*TrialRequest) (*TrialResult, error) {
		return nil, &NodeError{Node: "flappy", Err: errors.New("connection refused")}
	}}
	pool := newDynamicTestPool(t, "fop", broken)
	pool.MaxTries = 3
	pool.Retry = runner.RetryPolicy{MaxAttempts: 1}
	pool.JoinGrace = time.Millisecond
	clock := time.Unix(1000, 0)
	pool.now = func() time.Time { return clock }

	cfg := flags.NewConfig(flags.NewRegistry())
	if m := pool.Measure(cfg, 1); !m.Failed {
		t.Fatalf("broken node should exhaust placement: %+v", m)
	}
	if nd := pool.nodes[0]; !nd.dead {
		t.Fatal("consecutive failures should quarantine the node")
	}

	// The node restarts and re-registers under the same name.
	if fresh := pool.Join(NewLocal(prof, "flappy"), "flappy:1"); fresh {
		t.Fatal("re-join under a known name should not report a new node")
	}
	if nd := pool.nodes[0]; nd.dead || nd.fails != 0 {
		t.Fatalf("re-join should revive the breaker: %+v", nd)
	}
	if m := pool.Measure(cfg, 1); m.Failed {
		t.Fatalf("revived node should serve: %+v", m)
	}
	if pool.Telemetry.Counter("dispatch_node_rejoined_total").Value() != 1 {
		t.Error("re-join should be counted")
	}
}

// TestFleetJournalMembershipReplay: join/leave/drain records replay into
// the last-known live membership, so a restarted controller re-dials
// exactly the nodes that were in the fleet when it died.
func TestFleetJournalMembershipReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.fleet")
	f, _, err := OpenFleet(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.join("a", "10.0.0.1:1")
	f.join("b", "10.0.0.2:1")
	f.join("c", "10.0.0.3:1")
	f.leave("a")              // lease expired
	f.drain("b")              // graceful decommission
	f.join("a", "10.0.0.1:9") // a came back at a new address
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, view, err := OpenFleet(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "10.0.0.1:9", "c": "10.0.0.3:1"}
	if len(view.Members) != len(want) {
		t.Fatalf("members %v, want %v", view.Members, want)
	}
	for name, addr := range want {
		if view.Members[name] != addr {
			t.Fatalf("member %s at %q, want %q", name, view.Members[name], addr)
		}
	}
	if !sliceHas(view.Known, "b") {
		t.Error("a drained node should stay known")
	}
}

func sliceHas(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestPoolHonorsRetryAfterFloor: a 429 shed with a Retry-After hint
// floors the node's cooldown without advancing the breaker — the node is
// loaded, not broken, and must never be journaled dead for shedding.
func TestPoolHonorsRetryAfterFloor(t *testing.T) {
	prof := poolProfile(t, "fop")
	shed := true
	local := NewLocal(prof, "busy")
	busy := &fakeEval{name: "busy", fn: func(req *TrialRequest) (*TrialResult, error) {
		if shed {
			return nil, &NodeError{Node: "busy", Status: http.StatusTooManyRequests,
				Code: CodeBusy, RetryAfter: 3 * time.Second, Err: errors.New("node shedding load")}
		}
		return local.Evaluate(context.Background(), req)
	}}
	// Put the shedding node at the trial key's shard index, so the first
	// placement is guaranteed to hit it and shed.
	cfg := flags.NewConfig(flags.NewRegistry())
	evs := make([]Evaluator, 2)
	evs[shardOf(cfg.Key(), 2)] = busy
	evs[1-shardOf(cfg.Key(), 2)] = NewLocal(prof, "calm")
	pool := newTestPool(t, "fop", evs...)
	clock := time.Unix(1000, 0)
	pool.now = func() time.Time { return clock }

	if m := pool.Measure(cfg, 1); m.Failed {
		t.Fatalf("shed trial should land on the calm node: %+v", m)
	}
	nd := pool.nodes[0]
	if nd.name != "busy" {
		nd = pool.nodes[1]
	}
	if nd.fails != 0 || nd.dead {
		t.Fatalf("shedding advanced the breaker: fails=%d dead=%v", nd.fails, nd.dead)
	}
	if want := clock.Add(3 * time.Second); !nd.until.Equal(want) {
		t.Fatalf("Retry-After should floor the cooldown: until=%v want=%v", nd.until, want)
	}
	if pool.Telemetry.Counter("dispatch_node_shed_total").Value() == 0 {
		t.Error("shed placements should be counted")
	}

	// Inside the floor the node is skipped; past it, it serves again.
	shed = false
	if nd2 := pool.acquire(cfg.Key() + "x"); nd2 != nil && nd2.name == "busy" {
		t.Fatal("node acquired inside its Retry-After floor")
	} else if nd2 != nil {
		pool.settle(nd2, true)
	}
	clock = clock.Add(4 * time.Second)
	if m := pool.Measure(cfg, 2); m.Failed {
		t.Fatalf("recovered node should serve: %+v", m)
	}
}

// TestMembershipServeRoundTrip: the Serve helper binds a real listener,
// serves registrations, and shuts down cleanly.
func TestMembershipServeRoundTrip(t *testing.T) {
	pool := newDynamicTestPool(t, "fop")
	m := NewMembership(pool, nil)
	m.Dial = localDial(t, "fop")

	addr, stop, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	j := &Joiner{Controller: addr, Advertise: "10.0.0.5:1", Node: "served"}
	if err := j.Register(context.Background()); err != nil {
		t.Fatalf("register against Serve listener: %v", err)
	}
	if got := pool.Nodes(); len(got) != 1 || got[0] != "served" {
		t.Fatalf("pool after join: %v", got)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if err := j.Register(context.Background()); err == nil {
		t.Fatal("register should fail after shutdown")
	}
}

// TestFleetStateUnchangedByMembershipOps: the fleet journal file survives
// the OS-level sanity check — records written by membership ops replay
// without salvage warnings on a clean reopen.
func TestFleetStateUnchangedByMembershipOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.fleet")
	tel := telemetry.New()
	f, _, err := OpenFleet(path, tel)
	if err != nil {
		t.Fatal(err)
	}
	f.join("x", "addr:1")
	f.drain("x")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal file missing: %v", err)
	}
	if _, view, err := OpenFleet(path, tel); err != nil {
		t.Fatal(err)
	} else if len(view.Members) != 0 {
		t.Fatalf("drained node resurrected on replay: %v", view.Members)
	}
}
