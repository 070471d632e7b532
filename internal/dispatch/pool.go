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
	"repro/internal/telemetry"
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
// runs. Fleet membership and in-flight ownership are durably journaled
// via AttachFleet. Safe for concurrent use.
type Pool struct {
	// Retry bounds re-attempts of transiently failed measurements; the
	// zero value means the defaults (see runner.RetryPolicy).
	Retry runner.RetryPolicy
	// TimeoutSeconds is the per-repetition harness kill threshold sent
	// with every trial. NewPool defaults it like runner.NewInProcess: 6×
	// the default configuration's wall time.
	TimeoutSeconds float64
	// Noise is the simulator noise level sent with every trial; negative
	// means the simulator default.
	Noise float64
	// DisableCache turns off config-key memoization.
	DisableCache bool
	// MaxNodeFailures is how many consecutive placement failures
	// quarantine a node; values below 1 mean the default, 3.
	MaxNodeFailures int
	// Cooldown is the first quarantine's length, doubling each round up
	// to MaxCooldown. Zero means 250ms / 15s.
	Cooldown    time.Duration
	MaxCooldown time.Duration
	// MaxTries bounds placements per attempt before the trial surfaces as
	// a transient NodeDownFailure; values below 1 mean 8× the fleet size.
	MaxTries int
	// Batch caps trials per evaluate-batch round trip. Zero disables
	// batched transport: MeasureBatch still satisfies the executor's batch
	// seam but degrades to concurrent single-trial placement, which is the
	// reference behavior batching must stay byte-identical to.
	Batch int
	// JoinGrace is how long a placement waits for a first node when a
	// dynamic pool's fleet is momentarily empty (nodes join at runtime;
	// the session may start before the first registration lands). Zero
	// means 10s for dynamic pools. Waiting burns real time only — virtual
	// cost and determinism are untouched.
	JoinGrace time.Duration
	// Telemetry and Trace optionally receive the shared runner_* series
	// plus the dispatch_* fleet counters. When a ChaosRunner wraps this
	// pool, wire them to the chaos layer instead.
	Telemetry *telemetry.Registry
	Trace     *telemetry.Tracer
	// FaultHook, when set, is consulted before every placement and forces
	// a simulated node death when it returns true. The chaos layer's
	// node-down plans plug in here (Plan.NodeDownHook); the schedule is a
	// pure function of (seed, key, try) — deliberately not of the node —
	// so injected flaps are identical at any fleet size.
	FaultHook func(node, key string, try int) bool

	profile *workload.Profile
	now     func() time.Time
	dynamic bool

	// State holds the clock, rep indices and cache, keyed through
	// runner.PhaseKey like the in-process runner's, and snapshots them —
	// byte for byte the in-process runner's serialization. Fleet state is
	// deliberately absent: it lives in its own journal and is not a
	// determinism input.
	runner.State

	mu      sync.Mutex
	nodes   []*node
	fleet   *Fleet
	orphans []string
	// phase and shift support phase-shifting workloads (runner.PhaseSetter):
	// the shift travels with every request so any node derives the shifted
	// profile itself.
	phase int
	shift jvmsim.PhaseShift
	// timeout0 captures TimeoutSeconds at the first phase shift: phase
	// timeouts rescale from the base-profile threshold (runner.PhaseTimeout)
	// so repeated shifts never compound.
	timeout0    float64
	timeout0Set bool

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

// errInjectedNodeDown marks a FaultHook-forced placement failure.
var errInjectedNodeDown = errors.New("dispatch: injected node-down fault")

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

// Orphans returns the trial keys recovered from the fleet journal as
// in-flight when a previous controller died, sorted. Their ownership has
// been cleared; the session's own checkpoint replay decides whether they
// re-run, so nothing is lost or double-counted.
func (p *Pool) Orphans() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.orphans...)
}

// AttachFleet wires a durable fleet journal (and the view replayed from
// it) into the pool: known-dead nodes start quarantined until a probe
// revives them, orphaned in-flight trials are adopted, and membership for
// new nodes is journaled. Call before the first Measure. The pool owns
// the journal from here; Close closes it.
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
			nd.until = t.Add(p.cooldown(0))
		}
	}
	if view != nil && len(view.Inflight) > 0 {
		for key, owner := range view.Inflight {
			p.orphans = append(p.orphans, key)
			f.settle(owner, key)
		}
		sort.Strings(p.orphans)
		p.Telemetry.Counter("dispatch_orphans_adopted_total").Add(uint64(len(p.orphans)))
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

func (p *Pool) maxNodeFailures() int {
	if p.MaxNodeFailures < 1 {
		return 3
	}
	return p.MaxNodeFailures
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

// cooldown returns the quarantine length for round r (0-based), doubling
// from Cooldown up to MaxCooldown.
func (p *Pool) cooldown(r int) time.Duration {
	base := p.Cooldown
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	capd := p.MaxCooldown
	if capd <= 0 {
		capd = 15 * time.Second
	}
	d := base
	for i := 0; i < r && d < capd; i++ {
		d *= 2
	}
	if d > capd {
		d = capd
	}
	return d
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
	p.fleet.dispatch(best.name, key)
	return best
}

// settle accounts the end of a placement: success resets the node's
// breaker (reviving it if it was dead), failure advances it and may
// quarantine the node.
func (p *Pool) settle(nd *node, key string, ok bool) {
	t := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	nd.inflight--
	p.fleet.settle(nd.name, key)
	if ok {
		nd.evals++
		p.reviveLocked(nd)
		return
	}
	p.failLocked(nd, t)
}

// settleShed accounts the end of a placement the node shed (429 with a
// Retry-After hint): the node is loaded, not broken, so the breaker does
// not advance and the node is never journaled dead — instead the hint
// becomes a cooldown floor, keeping the pool from hammering a node that
// said when it wants to be bothered again.
func (p *Pool) settleShed(nd *node, key string, d time.Duration) {
	t := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	nd.inflight--
	p.fleet.settle(nd.name, key)
	if until := t.Add(d); nd.until.Before(until) {
		nd.until = until
	}
	p.Telemetry.Counter("dispatch_node_shed_total").Inc()
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
	if nd.fails < p.maxNodeFailures() {
		return
	}
	nd.fails = 0
	nd.until = t.Add(p.cooldown(nd.rounds))
	nd.rounds++
	p.Telemetry.Counter("dispatch_node_quarantined_total").Inc()
	if !nd.dead {
		nd.dead = true
		p.fleet.dead(nd.name)
	}
}

// SetPhase implements runner.PhaseSetter: subsequent trials carry the
// shift on the wire and the pool's rep indices and cache re-scope to the
// new phase (runner.PhaseKey), exactly like the in-process runner. The
// shift is validated here, before any node sees it, and the harness kill
// threshold recalibrates to the shifted workload's baseline
// (runner.PhaseTimeout) so the per-request timeout matches what an
// in-process runner would enforce.
func (p *Pool) SetPhase(phase int, shift jvmsim.PhaseShift) error {
	eff, err := shift.Apply(p.profile)
	if err != nil {
		return err
	}
	if phase == 0 {
		eff = p.profile
	}
	p.mu.Lock()
	if !p.timeout0Set {
		p.timeout0, p.timeout0Set = p.TimeoutSeconds, true
	}
	p.phase, p.shift = phase, shift
	p.TimeoutSeconds = runner.PhaseTimeout(p.timeout0, jvmsim.New(), p.profile, eff)
	p.mu.Unlock()
	return nil
}

// Measure implements runner.Runner with the exact cache, rep-index,
// retry, and telemetry semantics of runner.InProcess — the dispatch layer
// only changes where the attempt body runs.
func (p *Pool) Measure(cfg *flags.Config, reps int) runner.Measurement {
	return p.measure(cfg, reps, p.place)
}

// measure is the shared Measure body; place runs one placement attempt
// (single-trial transport, or a rendezvous into a batched wave — the
// choice changes only where the bytes travel, never what they are).
func (p *Pool) measure(cfg *flags.Config, reps int, place func(*TrialRequest) runner.Measurement) runner.Measurement {
	if reps < 1 {
		reps = 1
	}
	key := cfg.Key()

	p.mu.Lock()
	// Phases only change between rounds (the PhaseSetter contract), never
	// while a Measure is in flight.
	phase, shift := p.phase, p.shift
	p.mu.Unlock()
	sk := runner.PhaseKey(phase, key)
	if !p.DisableCache {
		if m, ok := p.Cached(sk, reps); ok {
			runner.NoteCacheHit(p.Telemetry, p.Trace, key)
			return m
		}
	}

	// ExplicitArgs, not CommandLine: the minimal rendering drops explicit
	// assignments that equal a flag's default, and the simulated VM — like
	// a real one — behaves differently when, say, UseParallelGC is forced
	// rather than defaulted. The transport form must carry explicitness.
	args := cfg.ExplicitArgs()
	m := p.Retry.Run(func(n int) runner.Measurement {
		req := &TrialRequest{
			Key: key, Benchmark: p.profile.Name, Args: args,
			RepBase: p.Reserve(sk, reps), Reps: reps,
			TimeoutSeconds: p.TimeoutSeconds, Noise: p.Noise,
		}
		if phase > 0 {
			s := shift
			req.Phase, req.Shift = phase, &s
		}
		m := place(req)
		runner.NoteAttempt(p.Telemetry, p.Trace, key, n, n > 0, m)
		return m
	})
	runner.NoteMeasured(p.Telemetry, p.Trace, key, m)
	p.Settle(sk, m, !p.DisableCache)
	return m
}

// place runs one measurement attempt against the fleet, silently
// re-dispatching across node deaths. Every placement failure is free in
// virtual time — the trial never ran anywhere — and invisible to the
// trace; only the dispatch_* counters see it. The attempt ends with the
// first node that answers (its measurement is node-independent), with a
// deterministic rejection, or — after MaxTries placements — with a
// transient NodeDownFailure for the retry policy to absorb.
func (p *Pool) place(req *TrialRequest) runner.Measurement {
	p.Telemetry.Counter("dispatch_trials_total").Inc()
	var joinDeadline time.Time
	for try := 0; try < p.maxTries(); try++ {
		if try > 0 {
			p.Telemetry.Counter("dispatch_redispatch_total").Inc()
			// Back off (real time only) exactly like a batched wave: a
			// re-dispatch that instantly re-fails burns the try budget in
			// microseconds, which under a node kill plus a shed burst can
			// exhaust every placement before a 429'd node's Retry-After
			// expires — surfacing a spurious transient failure that the
			// retry policy then charges to the session. Waiting is
			// pointless when the whole fleet is breaker-dead (only a
			// heartbeat or a join can help, and those run on their own
			// cadence), so a fully dead fleet still fails fast.
			if p.anyNodeAlive() {
				p.waveBackoff(try)
			}
		}
		nd := p.acquire(req.Key)
		if nd == nil {
			// Empty fleet. A dynamic pool waits out the join grace — the
			// session may have started before the first node registered —
			// then retries the placement without burning the try budget.
			if joinDeadline.IsZero() {
				joinDeadline = time.Now().Add(p.joinGrace())
			}
			if p.waitForNode(joinDeadline) {
				try--
				continue
			}
			break
		}
		var res *TrialResult
		var err error
		if p.FaultHook != nil && p.FaultHook(nd.name, req.Key, try) {
			p.Telemetry.Counter("dispatch_injected_node_down_total").Inc()
			err = &NodeError{Node: nd.name, Err: errInjectedNodeDown}
		} else {
			res, err = nd.ev.Evaluate(context.Background(), req)
			if err == nil && res.Measurement.Key != req.Key {
				// A node answering with the wrong trial is broken, not the
				// request: treat it like a transport fault.
				err = &NodeError{Node: nd.name, Err: fmt.Errorf("answered key %q for trial %q", res.Measurement.Key, req.Key)}
			}
		}
		if err == nil {
			p.settle(nd, req.Key, true)
			p.Telemetry.Counter("dispatch_evals_total").Inc()
			return res.Measurement
		}
		if d := retryAfterOf(err); d > 0 {
			p.settleShed(nd, req.Key, d)
		} else {
			p.settle(nd, req.Key, false)
		}
		if permanentError(err) {
			// The node understood the request and refused it; every node
			// would. The rejection condemns the trial deterministically.
			p.Telemetry.Counter("dispatch_rejected_total").Inc()
			return runner.Measurement{
				Key: req.Key, Failed: true, Failure: runner.NodeRejectedFailure,
				FailureMessage: err.Error(),
			}
		}
	}
	p.Telemetry.Counter("dispatch_no_node_total").Inc()
	return runner.Measurement{
		Key: req.Key, Failed: true, Failure: runner.NodeDownFailure,
		FailureMessage: fmt.Sprintf("dispatch: no evaluator node reachable after %d placements", p.maxTries()),
	}
}

// permanentError reports whether a placement error is a deterministic
// protocol rejection rather than a node fault.
func permanentError(err error) bool {
	var ne *NodeError
	if errors.As(err, &ne) {
		return ne.Permanent
	}
	var re *RequestError
	return errors.As(err, &re)
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
