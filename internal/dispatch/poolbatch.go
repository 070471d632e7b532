package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
)

// The pool's one measuring path. MeasureBatch implements the executor's
// runner.BatchMeasurer seam, and Measure is a batch of one: the shared
// runner.Harness drives a round's trials in lockstep (Harness.RunBatch),
// so every trial keeps the exact cache, rep-index, retry and telemetry
// path of the in-process runner, and each retry round's pending attempts
// are one placement wave. A wave cuts each node's share into requests of
// at most Batch trials (one with batching off) and ships them all at
// once, so the batch knob sets a request size and never a code path. Every
// placement ships through EvaluateBatch and settles by one verdict rule,
// so a session is byte-identical at any batch size and in-process. That
// equivalence is what lets partial-batch salvage re-dispatch the unsettled
// remainder of a failed request under the same repBase: a placement that
// never settled never measured anywhere, exactly like a node death.

// BatchEvaluator is implemented by evaluators that can serve several
// trials in one round trip (Remote, Local). The pool serves an evaluator
// without it through an adapter that evaluates a batch trial by trial.
type BatchEvaluator interface {
	EvaluateBatch(ctx context.Context, req *BatchRequest) (*BatchResult, error)
}

// call is one attempt on its way to the fleet: the request that places it
// and the measurement it settles into.
type call struct {
	req TrialRequest
	m   *runner.Measurement
}

// MeasureBatch implements runner.BatchMeasurer.
func (p *Pool) MeasureBatch(cfgs []*flags.Config, reps int) []runner.Measurement {
	phase, shift, _ := p.phases.Current(p.profile)
	var sp *jvmsim.PhaseShift
	if phase > 0 {
		sp = &shift
	}
	return p.RunBatch(cfgs, reps, phase, !p.DisableCache, func(round []*runner.Attempt) {
		wave := make([]*call, len(round))
		for i, a := range round {
			// The args are the canonical form that the key names: every
			// assignment off its default, plus forced defaults whose
			// explicitness the simulated VM — like a real one — can tell
			// apart (an explicit UseParallelGC). The node re-derives the
			// key from them, so what it measures is what the cache entry
			// stands for.
			wave[i] = &call{req: TrialRequest{
				Key: a.Key, Benchmark: p.profile.Name, Args: a.Cfg.ExplicitArgs(),
				RepBase: a.RepBase, Reps: a.Reps, Phase: phase, Shift: sp,
				TimeoutSeconds: p.TimeoutSeconds, Noise: p.Noise,
			}, m: &a.M}
		}
		p.placeWave(wave)
	})
}

// placeWave places one wave of attempts across the fleet, re-dispatching
// the unsettled remainder round after round (partial-batch salvage)
// across node deaths. Every placement failure is free in virtual time —
// the trial never ran anywhere — and invisible to the trace; only the
// dispatch_* counters see it. A trial settles with the first node that
// answers (its measurement is node-independent) or with a deterministic
// rejection; the rest surface as a transient NodeDownFailure for the
// retry policy to absorb once the try budget is spent or a dynamic pool's
// join grace runs out.
func (p *Pool) placeWave(wave []*call) {
	p.Telemetry.Counter("dispatch_trials_total").Add(uint64(len(wave)))
	remaining := wave
	var joinDeadline time.Time
	// refused holds the last refusal of a whole request that each call
	// met, which names the call's failure if its placements run out.
	var refused map[*call]*NodeError
	// The try budget is re-read every round: a dynamic fleet can grow
	// mid-attempt.
	for try := 0; len(remaining) > 0 && try < p.maxTries(); try++ {
		if try > 0 {
			p.Telemetry.Counter("dispatch_redispatch_total").Add(uint64(len(remaining)))
			// Back off (real time only): a re-dispatch that instantly
			// re-fails burns the try budget in microseconds, which under a
			// node kill plus a shed burst can exhaust every placement before
			// a 429'd node's Retry-After expires — surfacing a spurious
			// transient failure that the retry policy then charges to the
			// session. Waiting is pointless when the whole fleet is
			// breaker-dead (only a heartbeat or a join can help, and those
			// run on their own cadence), so a dead fleet fails fast.
			if p.anyNodeAlive() {
				p.waveBackoff(try)
			}
		}

		assign := make(map[*node][]*call)
		var next []*call
		empty := false
		for _, c := range remaining {
			nd := p.acquire(c.req.Key)
			if nd == nil {
				empty = true
				next = append(next, c)
				continue
			}
			if p.FaultHook != nil && p.FaultHook(nd.name, c.req.Key, try) {
				p.Telemetry.Counter("dispatch_injected_node_down_total").Inc()
				p.settle(nd, false)
				next = append(next, c)
				continue
			}
			assign[nd] = append(assign[nd], c)
		}
		if empty && len(assign) == 0 {
			// Whole fleet gone. A dynamic pool waits out the join grace —
			// the session may have started before the first node
			// registered — then retries the round without burning the try
			// budget; once the grace runs out the attempt ends.
			if joinDeadline.IsZero() {
				joinDeadline = time.Now().Add(p.joinGrace())
			}
			if !p.waitForNode(joinDeadline) {
				break
			}
			try--
			remaining = next
			continue
		}

		// Cut each node's share into requests of at most the batch cap and
		// ship them all at once: one goroutine per request past the first,
		// which ships on this goroutine, so a wave of one places inline.
		var reqs []request
		for nd, cs := range assign {
			for size := max(p.Batch, 1); len(cs) > 0; cs = cs[min(size, len(cs)):] {
				reqs = append(reqs, request{nd: nd, cs: cs[:min(size, len(cs))]})
			}
		}
		var wg sync.WaitGroup
		for i := 1; i < len(reqs); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.ship(&reqs[i])
			}()
		}
		if len(reqs) > 0 {
			p.ship(&reqs[0])
		}
		wg.Wait()
		for _, r := range reqs {
			next = append(next, r.redo...)
			if r.refused != nil {
				if refused == nil {
					refused = make(map[*call]*NodeError)
				}
				for _, c := range r.redo {
					refused[c] = r.refused
				}
			}
		}
		remaining = next
	}
	for _, c := range remaining {
		p.Telemetry.Counter("dispatch_no_node_total").Inc()
		msg := fmt.Sprintf("dispatch: no evaluator node reachable after %d placements", p.maxTries())
		if ne := refused[c]; ne != nil {
			msg += fmt.Sprintf("; node %s refused the whole request [%s]: %v", ne.Node, ne.Code, ne.Err)
		}
		*c.m = runner.Measurement{
			Key: c.req.Key, Failed: true, Failure: runner.NodeDownFailure, FailureMessage: msg,
		}
	}
}

// waveBackoff sleeps between re-dispatch rounds: exponential from 2ms
// doubling to a 250ms cap, with ±50% jitter so salvage retries from many
// concurrent waves don't synchronize against a recovering fleet.
func (p *Pool) waveBackoff(round int) {
	d := 2 * time.Millisecond
	for i := 1; i < round && d < 250*time.Millisecond; i++ {
		d *= 2
	}
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	time.Sleep(d)
}

// request is one evaluate-batch round trip of a wave: a chunk of one
// node's share, the trials it leaves to re-dispatch elsewhere, and the
// node's refusal of the whole request if it answered with one.
type request struct {
	nd      *node
	cs      []*call
	redo    []*call
	refused *NodeError
}

// ship sends one request and settles its trials. Every placement takes
// this one path, so a trial's verdict never depends on the batch size,
// the transport or the node that served it.
func (p *Pool) ship(r *request) {
	be, ok := r.nd.ev.(BatchEvaluator)
	if !ok {
		be = evaluateEach{r.nd.ev}
	}
	req := &BatchRequest{Trials: make([]TrialRequest, len(r.cs))}
	for i, c := range r.cs {
		req.Trials[i] = c.req
	}
	res, err := be.EvaluateBatch(context.Background(), req)
	if err != nil {
		p.settleBatchFault(r.nd, len(r.cs), retryAfterOf(err))
		// A 4xx envelope refusing the whole request is the node's verdict
		// on the request, not on a trial (a node of another protocol
		// generation answers every request so): the placements go on, but
		// their exhaustion names it.
		var ne *NodeError
		if errors.As(err, &ne) && ne.Permanent {
			r.refused = ne
		}
		r.redo = r.cs
		return
	}
	p.Telemetry.Counter("dispatch_batches_total").Inc()
	for i, c := range r.cs {
		if !p.settleEntry(r.nd, c, &res.Entries[i]) {
			r.redo = append(r.redo, c)
		}
	}
}

// settleEntry resolves one trial of a successfully returned batch and
// reports whether it settled.
func (p *Pool) settleEntry(nd *node, c *call, e *BatchEntry) bool {
	switch {
	case e.Result != nil && e.Result.Measurement.Key == c.req.Key:
		p.settle(nd, true)
		p.Telemetry.Counter("dispatch_evals_total").Inc()
		*c.m = e.Result.Measurement
		return true
	case e.Error.rejects():
		// The node understood the trial and refused it; every node would.
		// The verdict condemns only its own trial, and it reads the same
		// whichever node, transport or batch delivered it: the node's code
		// and diagnostic, nothing about the round trip.
		p.settle(nd, false)
		p.Telemetry.Counter("dispatch_rejected_total").Inc()
		*c.m = runner.Measurement{
			Key: c.req.Key, Failed: true, Failure: runner.NodeRejectedFailure,
			FailureMessage: fmt.Sprintf("dispatch: node rejected trial [%s]: %s", e.Error.Code, e.Error.Error),
		}
		return true
	default:
		// Wrong key, a per-entry internal error, or an empty entry: that
		// one placement failed transiently; salvage re-dispatches it under
		// the same repBase (it never measured anywhere).
		p.settle(nd, false)
		return false
	}
}

// settleBatchFault accounts a whole-batch transport failure: each of the
// batch's n placements ends, but the breaker advances once — one TCP
// fault must not count as a batch's worth of strikes and insta-quarantine
// an otherwise healthy node. A shed batch (429) floors the cooldown with
// the node's Retry-After instead and takes no strike: the node is loaded,
// not broken, and is never journaled dead for shedding.
func (p *Pool) settleBatchFault(nd *node, n int, retryAfter time.Duration) {
	t := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	nd.inflight -= n
	if retryAfter > 0 {
		if until := t.Add(retryAfter); nd.until.Before(until) {
			nd.until = until
		}
		p.Telemetry.Counter("dispatch_node_shed_total").Inc()
		return
	}
	p.failLocked(nd, t)
}

// evaluateEach serves an Evaluator without EvaluateBatch as a batch
// endpoint: it evaluates the trials one by one, answers a rejection in
// its own entry, and fails the whole batch on any other error, as a
// failed round trip would.
type evaluateEach struct{ Evaluator }

func (e evaluateEach) EvaluateBatch(ctx context.Context, req *BatchRequest) (*BatchResult, error) {
	res := &BatchResult{Node: e.Name(), Entries: make([]BatchEntry, len(req.Trials))}
	for i := range req.Trials {
		r, err := e.Evaluate(ctx, &req.Trials[i])
		if err != nil {
			env := rejection(err)
			if env == nil {
				return nil, err
			}
			res.Entries[i].Error = env
			continue
		}
		res.Entries[i].Result = r
	}
	return res, nil
}

// rejection renders an Evaluate error that every node would repeat — a
// *RequestError, or a permanent *NodeError — as the entry envelope a batch
// answers it with. It returns nil for a placement fault.
func rejection(err error) *ErrorEnvelope {
	var ne *NodeError
	if errors.As(err, &ne) {
		if !ne.Permanent {
			return nil
		}
		env := &ErrorEnvelope{Error: ne.Code, Code: ne.Code}
		if ne.Err != nil {
			env.Error = ne.Err.Error()
		}
		return env
	}
	var re *RequestError
	if errors.As(err, &re) {
		return &ErrorEnvelope{Error: re.Error(), Code: re.Code}
	}
	return nil
}
