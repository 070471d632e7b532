package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/flags"
	"repro/internal/hierarchy"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// QuarantinedFailure marks trials the session rejected without measuring:
// their configuration fell in a flag-hierarchy subtree whose circuit breaker
// was open. The configuration is not condemned — the breaker's half-open
// probe re-measures the subtree once the cooldown passes.
const QuarantinedFailure jvmsim.FailureKind = "quarantined"

// HedgePolicy arms the straggler watchdog. The session tracks the virtual
// cost of the last 64 delivered trials; once 8 are in, a trial whose cost
// exceeds 3 times the window's 90th percentile (and at least 1 virtual
// second) is treated as a straggler, and the watchdog hedges a duplicate
// dispatch at that deadline. First result wins: if the duplicate would
// have finished first (its clean cost rides in
// runner.Measurement.HedgeCostSeconds when the chaos layer stalled the
// primary), the trial is charged deadline+duplicate cost and the primary
// is canceled; otherwise the duplicate is canceled and the trial costs
// what it always did. Either way the loser is accounted in telemetry,
// never the budget — on a real farm it runs on a spare machine.
//
// The watchdog lives entirely in virtual time, so fixed-seed sessions stay
// byte-deterministic at any worker count with hedging enabled. Its
// parameters are fixed; a non-nil policy arms it.
type HedgePolicy struct{}

// The watchdog's parameters.
const (
	hedgePercentile = 0.9 // of the recent-cost window, anchors the deadline
	hedgeFactor     = 3.0 // multiplies the percentile cost into the deadline
	hedgeWindow     = 64  // recent trial costs remembered
	hedgeMinSamples = 8   // costs observed before the watchdog arms
	hedgeMinSeconds = 1.0 // floors the deadline against streaks of cheap trials
)

// String renders the policy canonically; the checkpoint layer folds it
// into the session fingerprint.
func (HedgePolicy) String() string {
	return fmt.Sprintf("p%g×%g,w%d,min%d,floor%g",
		hedgePercentile, hedgeFactor, hedgeWindow, hedgeMinSamples, hedgeMinSeconds)
}

// hedger is the watchdog state: a ring of recent delivered trial costs,
// the same costs kept sorted beside it, and the win/loss accounting.
type hedger struct {
	costs  []float64
	next   int
	sorted []float64 // costs in sort.Float64s order (NaN first)

	hedges int
	wins   int
	saved  float64
}

func newHedger() *hedger {
	return &hedger{costs: make([]float64, 0, hedgeWindow), sorted: make([]float64, 0, hedgeWindow)}
}

// costBefore is sort.Float64s's order: a NaN sorts before every number.
func costBefore(x, y float64) bool {
	return x < y || (math.IsNaN(x) && !math.IsNaN(y))
}

// sortedIndex returns where v belongs in h.sorted: the first position
// whose cost does not sort before v. An equal cost already held is there.
func (h *hedger) sortedIndex(v float64) int {
	return sort.Search(len(h.sorted), func(i int) bool { return !costBefore(h.sorted[i], v) })
}

// observe feeds one delivered trial's effective cost into the window. The
// sorted copy drops the evicted cost and takes the new one by binary
// search, so deadline reads a percentile without sorting.
func (h *hedger) observe(cost float64) {
	if cost <= 0 {
		return
	}
	if len(h.costs) < hedgeWindow {
		h.costs = append(h.costs, cost)
	} else {
		i := h.sortedIndex(h.costs[h.next])
		h.sorted = slices.Delete(h.sorted, i, i+1)
		h.costs[h.next] = cost
		h.next = (h.next + 1) % hedgeWindow
	}
	h.sorted = slices.Insert(h.sorted, h.sortedIndex(cost), cost)
}

// deadline returns the current straggler deadline, or false while the
// window is too small to arm the watchdog.
func (h *hedger) deadline() (float64, bool) {
	n := len(h.sorted)
	if n < hedgeMinSamples {
		return 0, false
	}
	idx := int(math.Ceil(hedgePercentile*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	d := h.sorted[idx] * hedgeFactor
	if d < hedgeMinSeconds {
		d = hedgeMinSeconds
	}
	return d, true
}

// decide resolves one fresh measurement against the watchdog: the returned
// effective cost is what the trial charges its slot, and the verdict is ""
// (no hedge), "primary-won", or "hedge-won". Cache replays are free and
// never hedged.
func (h *hedger) decide(m runner.Measurement) (eff float64, verdict string) {
	raw := m.CostSeconds
	if m.FromCache || raw <= 0 {
		return raw, ""
	}
	d, armed := h.deadline()
	if !armed || raw <= d {
		return raw, ""
	}
	// The primary blew the deadline: a duplicate dispatched at d. Its clean
	// cost is HedgeCostSeconds when the chaos layer stalled the primary; a
	// genuinely slow configuration runs just as slowly the second time.
	dup := m.HedgeCostSeconds
	if dup <= 0 {
		dup = raw
	}
	h.hedges++
	if hedgeFinish := d + dup; hedgeFinish < raw {
		h.wins++
		h.saved += raw - hedgeFinish
		return hedgeFinish, "hedge-won"
	}
	return raw, "primary-won"
}

// QuarantinePolicy arms the failure circuit breaker. The session
// classifies every configuration into the flag-hierarchy subtrees it
// selects (one branch per tree choice, most specific match wins) and
// tracks a sliding window of the last 16 deterministic-failure verdicts
// per subtree. Once 8 verdicts are in, a subtree whose failure density
// reaches 0.7 is quarantined: its proposals are rejected unmeasured (zero
// cost, QuarantinedFailure) for 25 delivered trials, after which a single
// half-open probe is measured — success closes the breaker, another
// deterministic failure re-opens it with a doubled cooldown (capped at
// 200 trials). Its parameters are fixed; a non-nil policy arms it.
type QuarantinePolicy struct{}

// The breaker's parameters.
const (
	quarantineWindow            = 16  // verdicts remembered per subtree
	quarantineMinSamples        = 8   // verdicts required before the breaker may open
	quarantineThreshold         = 0.7 // deterministic-failure fraction that opens it
	quarantineCooldownTrials    = 25  // delivered trials before the half-open probe
	quarantineMaxCooldownTrials = 200 // cap on a repeat offender's doubled cooldown
)

// String renders the policy canonically for the session fingerprint.
func (QuarantinePolicy) String() string {
	return fmt.Sprintf("w%d,min%d,t%g,cd%d..%d", quarantineWindow, quarantineMinSamples,
		quarantineThreshold, quarantineCooldownTrials, quarantineMaxCooldownTrials)
}

// sigPair is one (flag, value) assignment that selects a subtree.
type sigPair struct {
	flag *flags.Flag
	id   flags.ID
	want flags.Value
}

// subtreeSig identifies one branch of one tree choice by the flag values
// its Apply sets away from the defaults. A branch that leaves the defaults
// untouched has no pairs; such branches are not tracked at all — a
// zero-pair signature matches every configuration, so its breaker would
// absorb failures from unrelated subtrees and quarantine the whole space.
type subtreeSig struct {
	label string
	pairs []sigPair
}

func (s subtreeSig) matches(cfg *flags.Config) bool {
	for _, p := range s.pairs {
		if !cfg.GetID(p.id).Equal(p.flag.Type, p.want) {
			return false
		}
	}
	return true
}

// breaker is one subtree's circuit state.
type breaker struct {
	verdicts []bool // ring; true = deterministic failure
	size     int
	head     int
	count    int
	fails    int

	open  bool
	probe bool // a half-open probe is in flight
	until int  // trial index at which the half-open probe may dispatch
	trips int  // consecutive opens; doubles the cooldown
}

func (b *breaker) push(det bool, window int) {
	if b.count < window {
		b.verdicts = append(b.verdicts, det)
		b.count++
	} else {
		if b.verdicts[b.head] {
			b.fails--
		}
		b.verdicts[b.head] = det
		b.head = (b.head + 1) % window
	}
	if det {
		b.fails++
	}
}

func (b *breaker) reset() {
	b.verdicts = b.verdicts[:0]
	b.head, b.count, b.fails = 0, 0, 0
}

// quarantine is the session-side breaker bank: one breaker per hierarchy
// subtree, driven synchronously from the session goroutine so state
// transitions are deterministic for a fixed seed.
type quarantine struct {
	groups [][]subtreeSig // one group per tree choice
	state  map[string]*breaker
	tel    *telemetry.Registry
	trace  *telemetry.Tracer

	rejected int
	opens    int
}

func newQuarantine(tree *hierarchy.Tree, tel *telemetry.Registry, trace *telemetry.Tracer) *quarantine {
	reg := tree.Registry()
	def := flags.NewConfig(reg)
	q := &quarantine{
		state: make(map[string]*breaker),
		tel:   tel,
		trace: trace,
	}
	for _, ch := range tree.Choices() {
		var group []subtreeSig
		for _, br := range ch.Branches {
			c := flags.NewConfig(reg)
			br.Apply(c)
			sig := subtreeSig{label: ch.Name + "/" + br.Name}
			for _, name := range c.Diff(def) {
				id := reg.ID(name)
				sig.pairs = append(sig.pairs, sigPair{flag: reg.FlagByID(id), id: id, want: c.GetID(id)})
			}
			if len(sig.pairs) == 0 {
				continue // default branch: matches everything, never tracked
			}
			group = append(group, sig)
		}
		q.groups = append(q.groups, group)
	}
	return q
}

// classify returns cfg's subtree labels, one per tree choice (the most
// specific matching branch of each).
func (q *quarantine) classify(cfg *flags.Config) []string {
	labels := make([]string, 0, len(q.groups))
	for _, group := range q.groups {
		best, bestN := -1, -1
		for i, sig := range group {
			if len(sig.pairs) > bestN && sig.matches(cfg) {
				best, bestN = i, len(sig.pairs)
			}
		}
		if best >= 0 {
			labels = append(labels, group[best].label)
		}
	}
	return labels
}

// blocked decides at proposal time whether cfg may dispatch. trial is the
// session's delivered-trial count (the cooldown clock); t is the virtual
// time for trace events. A proposal that reaches an open breaker past its
// cooldown becomes the breaker's single half-open probe and is allowed
// through.
func (q *quarantine) blocked(cfg *flags.Config, key string, trial int, t float64) (string, bool) {
	labels := q.classify(cfg)
	for _, label := range labels {
		st := q.state[label]
		if st == nil || !st.open {
			continue
		}
		if trial >= st.until && !st.probe {
			continue // eligible to probe; armed below if no other label blocks
		}
		q.rejected++
		q.tel.Counter("session_quarantine_rejected_total").Inc()
		return label, true
	}
	for _, label := range labels {
		if st := q.state[label]; st != nil && st.open {
			st.probe = true
			q.tel.Counter("session_quarantine_probes_total").Inc()
			q.trace.Emit(telemetry.Event{
				T: t, Kind: telemetry.EvQuarantine, Key: key, Detail: "probe:" + label,
			})
		}
	}
	return "", false
}

// observe folds a delivered measurement into the breakers of cfg's
// subtrees. trial is the delivered-trial count, t the virtual delivery time.
func (q *quarantine) observe(cfg *flags.Config, key string, trial int, t float64, m runner.Measurement) {
	if m.Failure == QuarantinedFailure {
		return // synthetic rejections must not feed the breaker
	}
	det := m.Failed && !m.Transient
	for _, label := range q.classify(cfg) {
		st := q.state[label]
		if st == nil {
			st = &breaker{}
			q.state[label] = st
		}
		if st.open {
			if !st.probe {
				continue // a pre-open in-flight trial; the probe decides
			}
			st.probe = false
			if det {
				st.trips++
				cd := cooldown(st.trips)
				st.until = trial + cd
				q.tel.Counter("session_quarantine_reopens_total").Inc()
				q.trace.Emit(telemetry.Event{
					T: t, Kind: telemetry.EvQuarantine, Key: key,
					Detail: fmt.Sprintf("reopen:%s:%d", label, cd),
				})
			} else {
				st.open = false
				st.trips = 0
				st.reset()
				q.tel.Counter("session_quarantine_closes_total").Inc()
				q.trace.Emit(telemetry.Event{
					T: t, Kind: telemetry.EvQuarantine, Key: key, Detail: "close:" + label,
				})
			}
			continue
		}
		st.push(det, quarantineWindow)
		if st.count >= quarantineMinSamples &&
			float64(st.fails) >= quarantineThreshold*float64(st.count) {
			st.open = true
			st.probe = false
			st.trips = 1
			st.until = trial + quarantineCooldownTrials
			st.reset()
			q.opens++
			q.tel.Counter("session_quarantine_opens_total").Inc()
			q.trace.Emit(telemetry.Event{
				T: t, Kind: telemetry.EvQuarantine, Key: key,
				Detail: fmt.Sprintf("open:%s:%d", label, quarantineCooldownTrials),
			})
		}
	}
}

// cooldown is the quarantine length after a subtree's trips-th consecutive
// open: it doubles per trip, capped.
func cooldown(trips int) int {
	cd := quarantineCooldownTrials
	for i := 1; i < trips; i++ {
		cd *= 2
		if cd >= quarantineMaxCooldownTrials {
			return quarantineMaxCooldownTrials
		}
	}
	return cd
}

// synthetic builds the zero-cost rejection delivered for a quarantined
// proposal. The message is deterministic: it appears in checkpoint logs.
func syntheticQuarantined(key, label string) runner.Measurement {
	return runner.Measurement{
		Key:            key,
		Failed:         true,
		Failure:        QuarantinedFailure,
		FailureMessage: "core: subtree " + label + " quarantined",
	}
}

// robustnessFingerprint renders the session's hedge/quarantine options for
// the checkpoint fingerprint: a run must not resume under different
// robustness semantics than it crashed with. Sessions with neither feature
// render "" — old checkpoints stay loadable.
func robustnessFingerprint(h *HedgePolicy, q *QuarantinePolicy) string {
	s := ""
	if h != nil {
		s += "hedge(" + h.String() + ")"
	}
	if q != nil {
		if s != "" {
			s += "+"
		}
		s += "quarantine(" + q.String() + ")"
	}
	return s
}

// runnerFingerprint renders the runner identity for the checkpoint
// fingerprint. The fingerprint guards determinism inputs, and transport is
// not one: a runner that is provably byte-equivalent to another (the
// dispatch pool vs the in-process runner) may claim that identity via the
// DeterminismFingerprint hook, so checkpoints written under either resume
// under the other; the chaos handle claims its own, with its plan, through
// whichever runner it measures. Everything else renders its concrete type.
func runnerFingerprint(r runner.Runner) string {
	if fp, ok := r.(interface{ DeterminismFingerprint() string }); ok {
		return fp.DeterminismFingerprint()
	}
	return fmt.Sprintf("%T", r)
}
