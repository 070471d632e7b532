package dispatch

import (
	"context"
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
// one HTTP POST per trial. The machinery is transport-only by design —
// every trial keeps the exact cache, rep-index, retry, and telemetry path
// of a single Measure (literally the same measure() body; only the
// placement callback changes), so a batched session is byte-identical to
// an unbatched or in-process one at any batch size. That equivalence is
// what lets partial-batch salvage re-dispatch the unsettled remainder of a
// failed batch under the same repBase: a placement that never settled
// never measured anywhere, exactly like a single-dispatch node death.

// BatchEvaluator is implemented by evaluators that can serve several
// trials in one round trip (Remote, Local). Nodes without it degrade to
// per-trial placement inside the wave.
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
				p.settle(nd, c.req.Key, false)
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

// shipNode ships one node's share of a wave, chunked to the batch cap
// (single trials when batching is off), and returns the trials that must
// re-dispatch elsewhere.
func (p *Pool) shipNode(nd *node, cs []*batchCall) []*batchCall {
	var redo []*batchCall
	be, batchable := nd.ev.(BatchEvaluator)
	for len(cs) > 0 {
		n := min(len(cs), max(p.Batch, 1))
		chunk := cs[:n]
		cs = cs[n:]
		if !batchable || len(chunk) == 1 {
			for _, c := range chunk {
				redo = append(redo, p.shipOne(nd, c)...)
			}
			continue
		}
		req := &BatchRequest{Trials: make([]TrialRequest, len(chunk))}
		for i, c := range chunk {
			req.Trials[i] = *c.req
		}
		res, err := be.EvaluateBatch(context.Background(), req)
		if err != nil {
			keys := make([]string, len(chunk))
			for i, c := range chunk {
				keys[i] = c.req.Key
			}
			p.settleBatchFault(nd, keys, retryAfterOf(err))
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

// shipOne runs one single-trial placement inside a wave. It returns the
// trial when it must re-dispatch.
func (p *Pool) shipOne(nd *node, c *batchCall) []*batchCall {
	res, err := nd.ev.Evaluate(context.Background(), c.req)
	if err == nil && res.Measurement.Key != c.req.Key {
		// A node answering with the wrong trial is broken, not the
		// request: treat it like a transport fault.
		err = &NodeError{Node: nd.name, Err: fmt.Errorf("answered key %q for trial %q", res.Measurement.Key, c.req.Key)}
	}
	if err == nil {
		p.settle(nd, c.req.Key, true)
		p.Telemetry.Counter("dispatch_evals_total").Inc()
		c.reply <- res.Measurement
		return nil
	}
	if d := retryAfterOf(err); d > 0 {
		p.settleShed(nd, c.req.Key, d)
	} else {
		p.settle(nd, c.req.Key, false)
	}
	if permanentError(err) {
		// The node understood the request and refused it; every node
		// would. The rejection condemns the trial deterministically.
		p.Telemetry.Counter("dispatch_rejected_total").Inc()
		c.reply <- runner.Measurement{
			Key: c.req.Key, Failed: true, Failure: runner.NodeRejectedFailure,
			FailureMessage: err.Error(),
		}
		return nil
	}
	return []*batchCall{c}
}

// settleEntry resolves one trial of a successfully returned batch.
func (p *Pool) settleEntry(nd *node, c *batchCall, e *BatchEntry) []*batchCall {
	switch {
	case e.Result != nil && e.Result.Measurement.Key == c.req.Key:
		p.settle(nd, c.req.Key, true)
		p.Telemetry.Counter("dispatch_evals_total").Inc()
		c.reply <- e.Result.Measurement
		return nil
	case e.Error != nil && e.Error.Error != "" &&
		e.Error.Code != CodeInternal && e.Error.Code != CodeBusy && e.Error.Code != CodeUnauthorized:
		// A per-entry envelope is the node refusing that one trial — the
		// same deterministic verdict as a single-dispatch 4xx, condemning
		// only its own trial; siblings in the batch settle normally.
		p.settle(nd, c.req.Key, false)
		p.Telemetry.Counter("dispatch_rejected_total").Inc()
		ne := &NodeError{Node: nd.name, Code: e.Error.Code, Permanent: true, Err: fmt.Errorf("%s", e.Error.Error)}
		c.reply <- runner.Measurement{
			Key: c.req.Key, Failed: true, Failure: runner.NodeRejectedFailure,
			FailureMessage: ne.Error(),
		}
		return nil
	default:
		// Wrong key, a per-entry internal error, or an empty entry: that
		// one placement failed transiently; salvage re-dispatches it under
		// the same repBase (it never measured anywhere).
		p.settle(nd, c.req.Key, false)
		return []*batchCall{c}
	}
}

// settleBatchFault accounts a whole-batch transport failure: every
// trial's placement ends (in-flight counts, fleet journal), but the
// breaker advances once — one TCP fault must not count as a batch's worth
// of strikes and insta-quarantine an otherwise healthy node. A shed batch
// (429) floors the cooldown instead, like settleShed.
func (p *Pool) settleBatchFault(nd *node, keys []string, retryAfter time.Duration) {
	t := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range keys {
		nd.inflight--
		p.fleet.settle(nd.name, k)
	}
	if retryAfter > 0 {
		if until := t.Add(retryAfter); nd.until.Before(until) {
			nd.until = until
		}
		p.Telemetry.Counter("dispatch_node_shed_total").Inc()
		return
	}
	p.failLocked(nd, t)
}
