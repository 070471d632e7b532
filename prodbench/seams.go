package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/flags"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Timing wrappers for the traced run. Each wraps one layer's public seam
// and must forward every optional interface its inner value implements —
// and no other: the engine changes behaviour on type assertions (a runner
// without BatchMeasurer gets one POST per trial instead of one per batch; a
// searcher without BatchSearcher is driven one proposal at a time). The
// wrap functions therefore pick a composite type per combination.

// seam accumulates wall time spent inside one layer boundary. Calls may
// overlap (two workers measure at once): total sums the calls, busy is the
// union of their intervals.
type seam struct {
	mu     sync.Mutex
	calls  int
	total  time.Duration
	busy   time.Duration
	active int
	since  time.Time
}

func (s *seam) begin() time.Time {
	t := time.Now()
	s.mu.Lock()
	if s.active == 0 {
		s.since = t
	}
	s.active++
	s.mu.Unlock()
	return t
}

func (s *seam) end(t0 time.Time) time.Duration {
	t := time.Now()
	s.mu.Lock()
	s.calls++
	s.total += t.Sub(t0)
	s.active--
	if s.active == 0 {
		s.busy += t.Sub(s.since)
	}
	s.mu.Unlock()
	return t.Sub(t0)
}

// timedRunner times Measure at the session → runner seam.
type timedRunner struct {
	inner runner.Runner
	l     *layers
}

func (r *timedRunner) Measure(cfg *flags.Config, reps int) runner.Measurement {
	t0 := r.l.measure.begin()
	m := r.inner.Measure(cfg, reps)
	r.l.measure.end(t0)
	r.l.noteMeasured(cfg, reps, m)
	return m
}

func (r *timedRunner) Workload() *workload.Profile { return r.inner.Workload() }
func (r *timedRunner) Elapsed() float64            { return r.inner.Elapsed() }

// DeterminismFingerprint reports the wrapped runner's checkpoint identity —
// what the engine would derive from the runner itself — so a traced session
// writes and resumes exactly the checkpoints an untraced one does.
func (r *timedRunner) DeterminismFingerprint() string {
	if fp, ok := r.inner.(interface{ DeterminismFingerprint() string }); ok {
		return fp.DeterminismFingerprint()
	}
	desc := fmt.Sprintf("%T", r.inner)
	if ps, ok := r.inner.(interface{ PlanString() string }); ok {
		desc += "(" + ps.PlanString() + ")"
	}
	return desc
}

type timedBatch struct {
	r  *timedRunner
	bm runner.BatchMeasurer
}

func (b timedBatch) MeasureBatch(cfgs []*flags.Config, reps int) []runner.Measurement {
	t0 := b.r.l.measure.begin()
	ms := b.bm.MeasureBatch(cfgs, reps)
	b.r.l.measure.end(t0)
	for i, m := range ms {
		b.r.l.noteMeasured(cfgs[i], reps, m)
	}
	return ms
}

type timedSnapshot struct {
	r  *timedRunner
	ss runner.StateSnapshotter
}

// SnapshotState is timed: it runs on the session goroutine and blocks it.
func (s timedSnapshot) SnapshotState() ([]byte, error) {
	t0 := s.r.l.snapshot.begin()
	defer s.r.l.snapshot.end(t0)
	return s.ss.SnapshotState()
}

func (s timedSnapshot) RestoreState(data []byte) error { return s.ss.RestoreState(data) }

// wrapRunner returns a timed runner implementing exactly the optional
// runner interfaces inner implements.
func wrapRunner(inner runner.Runner, l *layers) runner.Runner {
	r := &timedRunner{inner: inner, l: l}
	bm, isB := inner.(runner.BatchMeasurer)
	ss, isS := inner.(runner.StateSnapshotter)
	ps, isP := inner.(runner.PhaseSetter)
	b, s := timedBatch{r, bm}, timedSnapshot{r, ss}
	switch {
	case isB && isS && isP:
		return struct {
			*timedRunner
			timedBatch
			timedSnapshot
			runner.PhaseSetter
		}{r, b, s, ps}
	case isB && isS:
		return struct {
			*timedRunner
			timedBatch
			timedSnapshot
		}{r, b, s}
	case isB && isP:
		return struct {
			*timedRunner
			timedBatch
			runner.PhaseSetter
		}{r, b, ps}
	case isS && isP:
		return struct {
			*timedRunner
			timedSnapshot
			runner.PhaseSetter
		}{r, s, ps}
	case isB:
		return struct {
			*timedRunner
			timedBatch
		}{r, b}
	case isS:
		return struct {
			*timedRunner
			timedSnapshot
		}{r, s}
	case isP:
		return struct {
			*timedRunner
			runner.PhaseSetter
		}{r, ps}
	}
	return r
}

// timedSearcher times Propose and Observe at the session → searcher seam.
type timedSearcher struct {
	inner core.Searcher
	l     *layers
}

func (s *timedSearcher) Name() string { return s.inner.Name() }

func (s *timedSearcher) Propose(ctx *core.Context) *flags.Config {
	t0 := s.l.propose.begin()
	s.l.noteProposal(t0)
	cfg := s.inner.Propose(ctx)
	s.l.propose.end(t0)
	return cfg
}

func (s *timedSearcher) Observe(ctx *core.Context, cfg *flags.Config, m runner.Measurement) {
	t0 := s.l.observe.begin()
	s.inner.Observe(ctx, cfg, m)
	s.l.observe.end(t0)
	s.l.noteObservation(time.Now())
}

type timedProposeBatch struct {
	s  *timedSearcher
	bs core.BatchSearcher
}

func (b timedProposeBatch) ProposeBatch(ctx *core.Context, n int) []*flags.Config {
	t0 := b.s.l.propose.begin()
	b.s.l.noteProposal(t0)
	cfgs := b.bs.ProposeBatch(ctx, n)
	b.s.l.propose.end(t0)
	return cfgs
}

// wrapSearcher returns a timed searcher implementing exactly the optional
// searcher interfaces inner implements.
func wrapSearcher(inner core.Searcher, l *layers) core.Searcher {
	s := &timedSearcher{inner: inner, l: l}
	bs, isB := inner.(core.BatchSearcher)
	pl, isP := inner.(core.PriorPreloader)
	b := timedProposeBatch{s, bs}
	switch {
	case isB && isP:
		return struct {
			*timedSearcher
			timedProposeBatch
			core.PriorPreloader
		}{s, b, pl}
	case isB:
		return struct {
			*timedSearcher
			timedProposeBatch
		}{s, b}
	case isP:
		return struct {
			*timedSearcher
			core.PriorPreloader
		}{s, pl}
	}
	return s
}

// timedEvaluator times round trips at the controller → evald seam.
type timedEvaluator struct {
	inner dispatch.Evaluator
	l     *layers
}

func (e *timedEvaluator) Name() string { return e.inner.Name() }

func (e *timedEvaluator) Evaluate(ctx context.Context, req *dispatch.TrialRequest) (*dispatch.TrialResult, error) {
	t0 := e.l.rtt.begin()
	res, err := e.inner.Evaluate(ctx, req)
	e.l.noteRoundTrip(e.l.rtt.end(t0), 1)
	return res, err
}

type timedEvalBatch struct {
	e  *timedEvaluator
	be dispatch.BatchEvaluator
}

func (b timedEvalBatch) EvaluateBatch(ctx context.Context, req *dispatch.BatchRequest) (*dispatch.BatchResult, error) {
	t0 := b.e.l.rtt.begin()
	res, err := b.be.EvaluateBatch(ctx, req)
	b.e.l.noteRoundTrip(b.e.l.rtt.end(t0), len(req.Trials))
	return res, err
}

// wrapEvaluator returns a timed evaluator implementing exactly the optional
// evaluator interfaces inner implements.
func wrapEvaluator(inner dispatch.Evaluator, l *layers) dispatch.Evaluator {
	e := &timedEvaluator{inner: inner, l: l}
	be, isB := inner.(dispatch.BatchEvaluator)
	pg, isP := inner.(dispatch.Pinger)
	b := timedEvalBatch{e, be}
	switch {
	case isB && isP:
		return struct {
			*timedEvaluator
			timedEvalBatch
			dispatch.Pinger
		}{e, b, pg}
	case isB:
		return struct {
			*timedEvaluator
			timedEvalBatch
		}{e, b}
	case isP:
		return struct {
			*timedEvaluator
			dispatch.Pinger
		}{e, pg}
	}
	return e
}

// handlerSeams times the evald node's evaluate handlers and counts their
// request and response bytes while a traced session is recording.
type handlerSeams struct {
	inner http.Handler
	rec   atomic.Pointer[layers]
}

func (h *handlerSeams) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l := h.rec.Load()
	if l == nil || r.Method != http.MethodPost {
		h.inner.ServeHTTP(w, r)
		return
	}
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	t0 := l.handle.begin()
	h.inner.ServeHTTP(cw, r)
	l.handle.end(t0)
	l.reqBytes.Add(body.n)
	l.respBytes.Add(cw.n)
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
