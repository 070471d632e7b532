package core

import (
	"repro/internal/flags"
	"repro/internal/runner"
)

// PriorSample is one warm-start prior with its quality signal: a
// configuration some earlier session found good, and that session's
// baseline-relative score (best/baseline, lower is better). Model-based
// searchers use Norm to pre-bias their estimates before the first local
// measurement arrives.
type PriorSample struct {
	Cfg  *flags.Config
	Norm float64
}

// PriorPreloader is implemented by searchers that can fold warm-start
// priors into their internal model before the session starts (Surrogate
// pre-loads its per-flag slot estimates). The WarmStart wrapper calls it
// once, before any Propose.
type PriorPreloader interface {
	PreloadPriors([]PriorSample)
}

// NewWarmStart wraps inner so that the given prior configurations are the
// session's first proposals, in order, before inner proposes anything. The
// priors must be built over the registry the session tunes, which in
// production is the one standard catalog (searchers diff and crossbreed
// observed configs, and those operations reject cross-registry configs).
//
// Every observation is forwarded to inner — all searchers in this package
// ignore observations of configs they did not propose, but they still see
// the session's ctx.Best move, and a PriorPreloader additionally receives
// the priors' historical scores up front. With no priors the wrapper
// disappears: NewWarmStart returns inner itself, which is what keeps
// transfer-off sessions byte-identical.
//
// If inner supports batch proposing, the wrapper does too, preserving the
// bulk-synchronous executor's round semantics: while priors remain a round
// is served from priors only, so the prior measurements land before inner's
// model-driven proposals are generated.
func NewWarmStart(inner Searcher, samples []PriorSample) Searcher {
	if len(samples) == 0 {
		return inner
	}
	if pl, ok := inner.(PriorPreloader); ok {
		pl.PreloadPriors(samples)
	}
	priors := make([]*flags.Config, len(samples))
	for i, s := range samples {
		priors[i] = s.Cfg
	}
	w := &warmStart{inner: inner, priors: priors}
	if _, ok := inner.(BatchSearcher); ok {
		return &warmStartBatch{w}
	}
	return w
}

type warmStart struct {
	inner  Searcher
	priors []*flags.Config
}

// Name implements Searcher. The wrapper is transparent: provenance surfaces
// through telemetry and the result's transfer info, not the searcher name,
// so checkpoints resume under the same name whether or not priors remain.
func (w *warmStart) Name() string { return w.inner.Name() }

// Propose implements Searcher: priors first, then the inner searcher.
func (w *warmStart) Propose(ctx *Context) *flags.Config {
	if len(w.priors) > 0 {
		cfg := w.priors[0]
		w.priors = w.priors[1:]
		return cfg
	}
	return w.inner.Propose(ctx)
}

// Observe implements Searcher. Forwarded unconditionally: inner searchers
// guard on their own pending sets, and prior measurements reach a
// PriorPreloader's model through PreloadPriors rather than here.
func (w *warmStart) Observe(ctx *Context, cfg *flags.Config, m runner.Measurement) {
	w.inner.Observe(ctx, cfg, m)
}

// warmStartBatch adds batch proposing when the inner searcher has it.
type warmStartBatch struct {
	*warmStart
}

// ProposeBatch implements BatchSearcher: rounds are served from the prior
// queue until it drains, then delegated. The wrapper never mixes priors and
// inner proposals in one round — the inner searcher should generate its
// batch after the priors' results are in its view of ctx.Best.
func (w *warmStartBatch) ProposeBatch(ctx *Context, n int) []*flags.Config {
	if len(w.priors) > 0 {
		k := n
		if k > len(w.priors) {
			k = len(w.priors)
		}
		out := w.priors[:k]
		w.priors = w.priors[k:]
		return out
	}
	return w.inner.(BatchSearcher).ProposeBatch(ctx, n)
}
