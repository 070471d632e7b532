package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/flags"
	"repro/internal/runner"
)

// Batched dispatch, pool side. MeasureBatch implements the executor's
// runner.BatchMeasurer seam: a round of fresh trials arrives as one call,
// and the pool ships it in waves of evaluate-batch round trips instead of
// one round trip per trial. The machinery is transport-only by design —
// every trial keeps the exact cache, rep-index, retry, and telemetry path
// of a single Measure (literally the same measure() body; only the
// placement callback changes), and every placement, batched or not, ships
// through EvaluateBatch and settles by one verdict rule, so a batched
// session is byte-identical to an unbatched or in-process one at any batch
// size. That equivalence is what lets partial-batch salvage re-dispatch
// the unsettled remainder of a failed batch under the same repBase: a
// placement that never settled never measured anywhere, exactly like a
// node death.

// BatchEvaluator is implemented by evaluators that can serve several
// trials in one round trip (Remote, Local). The pool serves an evaluator
// without it through an adapter that evaluates a batch trial by trial.
type BatchEvaluator interface {
	EvaluateBatch(ctx context.Context, req *BatchRequest) (*BatchResult, error)
}

// batchCall is one trial's rendezvous with the wave coordinator: a
// placement request and the channel its measurement comes back on.
type batchCall struct {
	req   *TrialRequest
	reply chan runner.Measurement
}

// MeasureBatch implements runner.BatchMeasurer. With Batch <= 0 it
// degrades to the reference behavior — concurrent single Measures, which
// is exactly what the executor would do without the seam — so the batch
// knob can never change results, only round trips.
func (p *Pool) MeasureBatch(cfgs []*flags.Config, reps int) []runner.Measurement {
	out := make([]runner.Measurement, len(cfgs))
	switch {
	case len(cfgs) == 0:
		return out
	case len(cfgs) == 1:
		out[0] = p.Measure(cfgs[0], reps)
		return out
	case p.Batch <= 0:
		var wg sync.WaitGroup
		for i, cfg := range cfgs {
			wg.Add(1)
			go func(i int, cfg *flags.Config) {
				defer wg.Done()
				out[i] = p.Measure(cfg, reps)
			}(i, cfg)
		}
		wg.Wait()
		return out
	}

	// Each trial runs the ordinary measure body in its own goroutine; its
	// placement attempts rendezvous on calls. The coordinator releases a
	// wave when every still-active trial has an attempt pending — a
	// deterministic grouping rule (no linger timers), so batch composition
	// depends only on which trials are still in flight, never on timing.
	calls := make(chan *batchCall)
	finished := make(chan struct{})
	for i, cfg := range cfgs {
		go func(i int, cfg *flags.Config) {
			out[i] = p.measure(cfg, reps, func(c *batchCall) { calls <- c })
			finished <- struct{}{}
		}(i, cfg)
	}
	active := len(cfgs)
	var pending []*batchCall
	for active > 0 {
		select {
		case c := <-calls:
			pending = append(pending, c)
		case <-finished:
			active--
		}
		if active > 0 && len(pending) == active {
			p.placeWave(pending)
			pending = nil
		}
	}
	return out
}

// placeWave places one wave of trials across the fleet — a single-trial
// Measure is a wave of one — re-dispatching the unsettled remainder round
// after round (partial-batch salvage) across node deaths. Every placement
// failure is free in virtual time — the trial never ran anywhere — and
// invisible to the trace; only the dispatch_* counters see it. A trial
// settles with the first node that answers (its measurement is
// node-independent) or with a deterministic rejection; the rest surface as
// a transient NodeDownFailure for the retry policy to absorb once the try
// budget is spent or a dynamic pool's join grace runs out.
func (p *Pool) placeWave(wave []*batchCall) {
	p.Telemetry.Counter("dispatch_trials_total").Add(uint64(len(wave)))
	remaining := wave
	var joinDeadline time.Time
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

		assign := make(map[*node][]*batchCall)
		var next []*batchCall
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

		// Each node's share ships concurrently; the last one on this
		// goroutine, so a wave of one places inline like any call.
		var wg sync.WaitGroup
		var mu sync.Mutex
		ship := func(nd *node, cs []*batchCall) {
			if redo := p.shipNode(nd, cs); len(redo) > 0 {
				mu.Lock()
				next = append(next, redo...)
				mu.Unlock()
			}
		}
		shares := len(assign)
		for nd, cs := range assign {
			if shares--; shares == 0 {
				ship(nd, cs)
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ship(nd, cs)
			}()
		}
		wg.Wait()
		remaining = next
	}
	for _, c := range remaining {
		p.Telemetry.Counter("dispatch_no_node_total").Inc()
		c.reply <- runner.Measurement{
			Key: c.req.Key, Failed: true, Failure: runner.NodeDownFailure,
			FailureMessage: fmt.Sprintf("dispatch: no evaluator node reachable after %d placements", p.maxTries()),
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

// shipNode ships one node's share of a wave in batches of at most the
// batch cap (one trial each with batching off: a share of one is a batch
// of one) and returns the trials that must re-dispatch elsewhere. Every
// placement takes this one path, so a trial's verdict never depends on
// the batch size, the transport or the node that served it.
func (p *Pool) shipNode(nd *node, cs []*batchCall) []*batchCall {
	var redo []*batchCall
	be, ok := nd.ev.(BatchEvaluator)
	if !ok {
		be = evaluateEach{nd.ev}
	}
	for len(cs) > 0 {
		n := min(len(cs), max(p.Batch, 1))
		chunk := cs[:n]
		cs = cs[n:]
		req := &BatchRequest{Trials: make([]TrialRequest, len(chunk))}
		for i, c := range chunk {
			req.Trials[i] = *c.req
		}
		res, err := be.EvaluateBatch(context.Background(), req)
		if err != nil {
			p.settleBatchFault(nd, len(chunk), retryAfterOf(err))
			redo = append(redo, chunk...)
			continue
		}
		p.Telemetry.Counter("dispatch_batches_total").Inc()
		for i, c := range chunk {
			redo = append(redo, p.settleEntry(nd, c, &res.Entries[i])...)
		}
	}
	return redo
}

// settleEntry resolves one trial of a successfully returned batch.
func (p *Pool) settleEntry(nd *node, c *batchCall, e *BatchEntry) []*batchCall {
	switch {
	case e.Result != nil && e.Result.Measurement.Key == c.req.Key:
		p.settle(nd, true)
		p.Telemetry.Counter("dispatch_evals_total").Inc()
		c.reply <- e.Result.Measurement
		return nil
	case e.Error.rejects():
		// The node understood the trial and refused it; every node would.
		// The verdict condemns only its own trial, and it reads the same
		// whichever node, transport or batch delivered it: the node's code
		// and diagnostic, nothing about the round trip.
		p.settle(nd, false)
		p.Telemetry.Counter("dispatch_rejected_total").Inc()
		c.reply <- runner.Measurement{
			Key: c.req.Key, Failed: true, Failure: runner.NodeRejectedFailure,
			FailureMessage: fmt.Sprintf("dispatch: node rejected trial [%s]: %s", e.Error.Code, e.Error.Error),
		}
		return nil
	default:
		// Wrong key, a per-entry internal error, or an empty entry: that
		// one placement failed transiently; salvage re-dispatches it under
		// the same repBase (it never measured anywhere).
		p.settle(nd, false)
		return []*batchCall{c}
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
