package dispatch

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Pool shards measurement trials across a fleet of Evaluator nodes and
// implements runner.Runner, so core.Session drives a distributed fleet
// exactly as it drives the in-process simulator. Placement is sharded by
// trial key with work-stealing: the key's preferred node takes the trial
// unless another live node has strictly fewer trials in flight. Nodes that
// fail consecutively are quarantined behind a doubling cooldown with
// half-open probes — the same circuit-breaker shape core.QuarantinePolicy
// applies to broken flag subtrees — and a dead node's in-flight trials are
// silently re-dispatched to survivors at zero virtual cost (the failed
// placement never ran anywhere, and measurements are node-independent, so
// the session's bytes cannot tell). Only when every placement attempt is
// exhausted does a trial surface as a transient NodeDownFailure routed
// through the runner retry classes.
//
// Pool implements runner.StateSnapshotter with the exact serialization of
// the in-process runner and reports the in-process determinism
// fingerprint, so checkpoints move freely between local and distributed
// runs. Fleet membership is durably journaled via AttachFleet. Safe for
// concurrent use.
type Pool struct {
	// TimeoutSeconds is the per-repetition harness kill threshold sent
	// with every trial. NewPool defaults it like runner.NewInProcess: 6×
	// the default configuration's wall time.
	TimeoutSeconds float64
	// Noise is the simulator noise level sent with every trial; negative
	// means the simulator default.
	Noise float64
	// DisableCache turns off config-key memoization.
	DisableCache bool
	// MaxTries bounds placements per attempt before the trial surfaces as
	// a transient NodeDownFailure; values below 1 mean 8× the fleet size.
	MaxTries int
	// Batch caps trials per evaluate-batch round trip; zero or less sends
	// one trial per request. It sets a request size only: a wave ships
	// every request concurrently along the same path at any value.
	Batch int
	// JoinGrace is how long a placement waits for a first node when a
	// dynamic pool's fleet is momentarily empty (nodes join at runtime;
	// the session may start before the first registration lands). Zero
	// means 10s for dynamic pools. Waiting burns real time only — virtual
	// cost and determinism are untouched.
	JoinGrace time.Duration
	// FaultHook, when set, is consulted before every placement and forces
	// a simulated node death when it returns true. The chaos layer's
	// node-down plans plug in here (Plan.NodeDownHook); the schedule is a
	// pure function of (seed, key, try) — deliberately not of the node —
	// so injected flaps are identical at any fleet size.
	FaultHook func(node, key string, try int) bool

	profile *workload.Profile
	now     func() time.Time
	dynamic bool

	// Harness holds the retry policy and telemetry — Telemetry also
	// receives the dispatch_* fleet counters — and the clock, rep indices
	// and cache, snapshotted byte for byte like the in-process runner's.
	// Fleet state is deliberately absent: it lives in its own journal and
	// is not a determinism input.
	runner.Harness

	// phases carries the shift of a phase-shifting workload
	// (runner.PhaseSetter) onto every request, so any node derives the
	// shifted profile itself.
	phases runner.PhaseSwitch

	mu    sync.Mutex
	nodes []*node
	fleet *Fleet

	hbStop chan struct{}
	hbDone chan struct{}
}

// node is the Pool's view of one evaluator.
type node struct {
	ev   Evaluator
	name string

	inflight int       // trials currently placed here
	fails    int       // consecutive placement failures
	rounds   int       // quarantine rounds survived (cooldown doubling)
	until    time.Time // quarantined until; zero when healthy
	dead     bool      // currently considered dead (journaled)
	evals    uint64    // successful evaluations served
}

// NewPool builds a pool over evs measuring prof. At least one evaluator
// is required.
func NewPool(prof *workload.Profile, evs ...Evaluator) (*Pool, error) {
	if len(evs) == 0 {
		return nil, errors.New("dispatch: pool needs at least one evaluator node")
	}
	return newPool(prof, evs)
}

// NewDynamicPool builds a pool whose fleet may start empty and change at
// runtime: nodes enter via Join (the membership registry calls it on
// registration) and leave via Leave (drain or lease expiry). Placements
// against a momentarily empty fleet wait up to JoinGrace for a first node
// instead of failing.
func NewDynamicPool(prof *workload.Profile, evs ...Evaluator) (*Pool, error) {
	p, err := newPool(prof, evs)
	if err != nil {
		return nil, err
	}
	p.dynamic = true
	return p, nil
}

func newPool(prof *workload.Profile, evs []Evaluator) (*Pool, error) {
	if prof == nil {
		return nil, errors.New("dispatch: pool needs a workload profile")
	}
	p := &Pool{
		Noise:   -1,
		profile: prof,
		now:     time.Now,
	}
	p.TimeoutSeconds = 6 * jvmsim.New().DefaultWall(flags.NewRegistry(), prof, 1)
	seen := make(map[string]bool)
	for _, ev := range evs {
		name := ev.Name()
		if seen[name] {
			return nil, fmt.Errorf("dispatch: duplicate node name %q", name)
		}
		seen[name] = true
		p.nodes = append(p.nodes, &node{ev: ev, name: name})
	}
	return p, nil
}

// Workload implements runner.Runner.
func (p *Pool) Workload() *workload.Profile { return p.profile }

// DeterminismFingerprint implements the core engine's fingerprint hook.
// The pool is byte-equivalent to the in-process runner by construction
// (the differential suite proves it), and the checkpoint fingerprint
// guards determinism inputs, not transport — so a checkpoint written
// under either resumes under the other.
func (p *Pool) DeterminismFingerprint() string { return "*runner.InProcess" }

// AttachFleet wires a durable fleet journal (and the view replayed from
// it) into the pool: known-dead nodes start quarantined until a probe
// revives them, and membership for new nodes is journaled. Call before
// the first Measure. The pool owns the journal from here; Close closes
// it.
func (p *Pool) AttachFleet(f *Fleet, view *FleetView) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fleet = f
	known := make(map[string]bool)
	if view != nil {
		for _, n := range view.Known {
			known[n] = true
		}
	}
	t := p.now()
	for _, nd := range p.nodes {
		if !known[nd.name] {
			f.register(nd.name)
		}
		if view != nil && view.Dead[nd.name] {
			// Last seen dead: keep it out of rotation until a heartbeat or
			// half-open placement proves it back.
			nd.dead = true
			nd.until = t.Add(minNodeCooldown)
		}
	}
}

// Join adds ev to the fleet at runtime, journaling the membership change.
// A re-join under a known name (a node that flapped and re-registered, or
// one resumed from the fleet journal) swaps in the fresh evaluator and
// revives the breaker rather than duplicating the node. addr is the
// address the node advertised, recorded so a restarted controller can
// re-dial it. Returns true when the node is new to this pool.
func (p *Pool) Join(ev Evaluator, addr string) bool {
	name := ev.Name()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, nd := range p.nodes {
		if nd.name != name {
			continue
		}
		nd.ev = ev
		p.reviveLocked(nd)
		p.fleet.join(name, addr)
		p.Telemetry.Counter("dispatch_node_rejoined_total").Inc()
		return false
	}
	p.nodes = append(p.nodes, &node{ev: ev, name: name})
	p.fleet.join(name, addr)
	p.Telemetry.Counter("dispatch_node_joined_total").Inc()
	return true
}

// Leave removes the named node from rotation. drained marks a graceful
// decommission (the node deregistered itself); false means its liveness
// lease expired. Placements already in flight on the node settle normally
// — a drain lets them finish, and a death surfaces as a transport fault
// that re-dispatches the trial at zero virtual cost either way. Returns
// true when the node was present.
func (p *Pool) Leave(name string, drained bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, nd := range p.nodes {
		if nd.name != name {
			continue
		}
		p.nodes = append(p.nodes[:i], p.nodes[i+1:]...)
		if drained {
			p.fleet.drain(name)
			p.Telemetry.Counter("dispatch_node_drained_total").Inc()
		} else {
			p.fleet.leave(name)
			p.Telemetry.Counter("dispatch_node_left_total").Inc()
		}
		return true
	}
	return false
}

// Nodes returns the current fleet's node names, sorted.
func (p *Pool) Nodes() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.nodes))
	for _, nd := range p.nodes {
		names = append(names, nd.name)
	}
	sort.Strings(names)
	return names
}

func (p *Pool) maxTries() int {
	if p.MaxTries >= 1 {
		return p.MaxTries
	}
	p.mu.Lock()
	n := len(p.nodes)
	p.mu.Unlock()
	if n < 1 {
		// A dynamic fleet can be momentarily empty; the budget must still
		// let the join-grace wait run.
		n = 1
	}
	return 8 * n
}

// anyNodeAlive reports whether at least one node has not been declared
// dead by the breaker — i.e. whether waiting out cooldowns can help.
func (p *Pool) anyNodeAlive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, nd := range p.nodes {
		if !nd.dead {
			return true
		}
	}
	return false
}

func (p *Pool) joinGrace() time.Duration {
	if p.JoinGrace > 0 {
		return p.JoinGrace
	}
	if p.dynamic {
		return 10 * time.Second
	}
	return 0
}

// waitForNode blocks (real time, not virtual) until the fleet is non-empty
// or the join grace expires, returning true when a node is available. Only
// dynamic pools wait; a static pool with no nodes cannot gain one.
func (p *Pool) waitForNode(deadline time.Time) bool {
	grace := p.joinGrace()
	if grace <= 0 {
		return false
	}
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		p.mu.Lock()
		n := len(p.nodes)
		p.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// A node's breaker: maxNodeFailures consecutive placement failures
// quarantine it, for minNodeCooldown the first time, doubling each
// further round up to maxNodeCooldown.
const (
	maxNodeFailures = 3
	minNodeCooldown = 250 * time.Millisecond
	maxNodeCooldown = 15 * time.Second
)

// nodeCooldown returns the quarantine length for round r (0-based).
func nodeCooldown(r int) time.Duration {
	d := minNodeCooldown
	for i := 0; i < r && d < maxNodeCooldown; i++ {
		d *= 2
	}
	return min(d, maxNodeCooldown)
}

// shardOf maps a trial key to its preferred node index.
func shardOf(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// eligible reports whether the node is in rotation at time t: healthy, or
// quarantined with an expired cooldown (a half-open probe slot).
func (nd *node) eligible(t time.Time) bool {
	return nd.until.IsZero() || !t.Before(nd.until)
}

// acquire picks a node for key and accounts the placement. Preference:
// the key's shard owner, unless another eligible node has strictly fewer
// trials in flight (work-stealing). When every node is quarantined the
// least-loaded node is force-probed anyway — giving up instantly would
// turn one bad burst into a dead session. Returns nil only for an empty
// fleet.
func (p *Pool) acquire(key string) *node {
	t := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *node
	for _, nd := range p.nodes {
		if !nd.eligible(t) {
			continue
		}
		if best == nil || nd.inflight < best.inflight {
			best = nd
		}
	}
	if best == nil {
		// Fleet-wide quarantine: force a half-open probe instead of
		// failing the trial outright. Probe the node whose cooldown
		// expires soonest — a shed node that announced a short
		// Retry-After is a far better bet than a dead node whose
		// doubling quarantine keeps pushing its horizon out — and break
		// ties toward the fewest trials in flight.
		for _, nd := range p.nodes {
			if best == nil || nd.until.Before(best.until) ||
				(nd.until.Equal(best.until) && nd.inflight < best.inflight) {
				best = nd
			}
		}
		if best == nil {
			return nil
		}
		p.Telemetry.Counter("dispatch_forced_probes_total").Inc()
	} else if pref := p.nodes[shardOf(key, len(p.nodes))]; pref.eligible(t) && pref.inflight <= best.inflight {
		best = pref
	}
	best.inflight++
	return best
}

// settle accounts the end of a placement: success resets the node's
// breaker (reviving it if it was dead), failure advances it and may
// quarantine the node.
func (p *Pool) settle(nd *node, ok bool) {
	t := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	nd.inflight--
	if ok {
		nd.evals++
		p.reviveLocked(nd)
		return
	}
	p.failLocked(nd, t)
}

// reviveLocked resets a node's breaker after a successful interaction.
func (p *Pool) reviveLocked(nd *node) {
	if nd.dead {
		nd.dead = false
		p.fleet.alive(nd.name)
		p.Telemetry.Counter("dispatch_node_revived_total").Inc()
	}
	nd.fails, nd.rounds, nd.until = 0, 0, time.Time{}
}

// failLocked advances a node's breaker after a failed interaction.
func (p *Pool) failLocked(nd *node, t time.Time) {
	nd.fails++
	p.Telemetry.Counter("dispatch_node_failures_total").Inc()
	if nd.fails < maxNodeFailures {
		return
	}
	nd.fails = 0
	nd.until = t.Add(nodeCooldown(nd.rounds))
	nd.rounds++
	p.Telemetry.Counter("dispatch_node_quarantined_total").Inc()
	if !nd.dead {
		nd.dead = true
		p.fleet.dead(nd.name)
	}
}

// SetPhase implements runner.PhaseSetter: subsequent trials carry the
// shift on the wire and the pool's rep indices and cache re-scope to the
// new phase, exactly like the in-process runner — through the same
// runner.PhaseSwitch, so the shift is validated before any node sees it
// and the per-request kill threshold rescales exactly as an in-process
// runner's does.
func (p *Pool) SetPhase(phase int, shift jvmsim.PhaseShift) error {
	return p.phases.Set(phase, shift, jvmsim.New(), p.profile, &p.TimeoutSeconds)
}

// Measure implements runner.Runner as a batch of one, so a trial placed
// alone takes the pool's one measuring path.
func (p *Pool) Measure(cfg *flags.Config, reps int) runner.Measurement {
	return p.MeasureBatch([]*flags.Config{cfg}, reps)[0]
}

// retryAfterOf extracts a shed node's backoff hint, if the error carries
// one.
func retryAfterOf(err error) time.Duration {
	var ne *NodeError
	if errors.As(err, &ne) {
		return ne.RetryAfter
	}
	return 0
}

// Pinger is implemented by evaluators that support liveness probes
// (Remote); heartbeats skip the rest.
type Pinger interface {
	Ping(ctx context.Context) error
}

// Probe pings every probeable node once, reviving quarantined nodes that
// answer and advancing the breaker of nodes that don't.
func (p *Pool) Probe(ctx context.Context) {
	p.mu.Lock()
	nds := append([]*node(nil), p.nodes...)
	p.mu.Unlock()
	for _, nd := range nds {
		pg, ok := nd.ev.(Pinger)
		if !ok {
			continue
		}
		p.Telemetry.Counter("dispatch_heartbeats_total").Inc()
		err := pg.Ping(ctx)
		t := p.now()
		p.mu.Lock()
		if err == nil {
			p.reviveLocked(nd)
		} else {
			p.failLocked(nd, t)
		}
		p.mu.Unlock()
	}
}

// StartHeartbeats launches the periodic liveness prober. Call Close to
// stop it.
func (p *Pool) StartHeartbeats(every time.Duration) {
	if every <= 0 {
		every = time.Second
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hbStop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	p.hbStop, p.hbDone = stop, done
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				p.Probe(context.Background())
			}
		}
	}()
}

// Close stops heartbeats and closes the fleet journal, if any.
func (p *Pool) Close() error {
	p.mu.Lock()
	stop, done := p.hbStop, p.hbDone
	p.hbStop, p.hbDone = nil, nil
	f := p.fleet
	p.fleet = nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return f.Close()
}
