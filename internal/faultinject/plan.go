// Package faultinject is the tuner's deterministic chaos layer: a
// ChaosRunner makes the measurement harness of any caching runner sabotage
// its attempts — transient launch failures, corrupted reports, spurious
// crashes, hangs killed at a real deadline, latency spikes and stalled
// deliveries — according to a seeded, per-configuration schedule
// described by a Plan.
//
// The paper's 200-minute tuning sessions only work because the harness
// survives hostile configurations; this package makes that survivable
// hostility reproducible. Every fault decision is a pure hash of
// (seed, configuration key, attempt index), so a chaos-wrapped session is
// exactly as deterministic as a clean one: the same seed yields the same
// faults, the same retries, the same budget spend, and the same winning
// configuration at any worker count.
//
// The package holds no measurement state. New installs a ChaosRunner
// handle as the fault source of a runner's runner.Harness, which draws a
// fault for every attempt its cache does not answer, numbering attempts
// by a per-configuration launch counter it keeps beside the rep indices.
// So a chaos session has one retry loop, one virtual clock and one state
// stream, and a chaos round over the fleet is one placement wave per
// retry round like any other. The streak of injected failures an attempt
// follows and how many faults were injected (the chaos_* telemetry
// series) are derived, not stored.
//
// Plans are built three ways: literally, from a named scenario
// (Scenario("unstable-farm")), or from the fault-plan DSL — a comma list of
// key=value items, e.g.
//
//	launch=0.1,corrupt=0.05,crash=0.02,hang=0.01,spike=0.2,spike-factor=3
//
// ParsePlan accepts either a scenario name or a DSL spec, which is what the
// CLI's -chaos flag and the HTTP API's "chaos" job option pass through.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Plan describes what the chaos layer injects. Probabilities apply
// independently per launch attempt (one draw decides which fault, if any,
// an attempt suffers), so their sum must stay ≤ 1.
//
// The zero value injects nothing. Cost knobs at zero mean their defaults.
type Plan struct {
	// Name labels the plan in reports; ParsePlan fills it.
	Name string

	// Launch is the probability a launch fails before the run starts
	// (transient; charged the launch overhead).
	Launch float64
	// Corrupt is the probability a completed run's report arrives
	// unparseable (transient; charged CrashSeconds of wasted run time).
	Corrupt float64
	// Crash is the probability the run dies spuriously partway through
	// (transient; charged CrashSeconds).
	Crash float64
	// Hang is the probability the run hangs until the harness kills it at
	// its real-time deadline (transient; charged HangSeconds).
	Hang float64
	// Spike is the probability a successful run is slowed by a machine
	// latency spike: walls and cost multiply by SpikeFactor. Spikes are
	// noise, not failures — they are never retried.
	Spike float64
	// Straggle is the probability a successful run is delivered late: the
	// harness stalls, multiplying the trial's virtual cost by
	// StraggleFactor while the run itself (walls, score) stays clean. The
	// clean cost rides in Measurement.HedgeCostSeconds so the session's
	// straggler watchdog can resolve first-result-wins hedging.
	// Stragglers are slowdowns, not failures — they are never retried.
	Straggle float64
	// NodeDown is the probability one *placement* of a trial on an
	// evaluator node fails as if the node had just died (distributed
	// sessions only; see internal/dispatch). It is a dispatch-layer fault,
	// not a measurement fault: the dispatch pool consults NodeDownHook
	// before each placement and silently re-dispatches at zero virtual
	// cost, so it does not enter Active(), the failure-probability sum,
	// or the ChaosRunner schedule.
	NodeDown float64

	// SpikeFactor multiplies wall times on a spike; values < 1 mean the
	// default, 3.
	SpikeFactor float64
	// StraggleFactor multiplies a straggler's cost; values < 1 mean the
	// default, 8.
	StraggleFactor float64
	// HangSeconds is the virtual budget a killed hang charges; values ≤ 0
	// mean the default, 300 (the paper-scale harness timeout).
	HangSeconds float64
	// CrashSeconds is the virtual run time wasted by a spurious crash or a
	// corrupted report; values ≤ 0 mean the default, 5.
	CrashSeconds float64
	// MaxConsecutive caps consecutive injected failures per configuration,
	// guaranteeing a clean attempt eventually gets through — a transient-
	// only configuration can never be condemned. Values < 1 mean the
	// default, 2.
	MaxConsecutive int

	// CrashAtTrial, when ≥ 1, kills the *session* (not a measurement) once
	// that many trials have completed — a simulated process kill for
	// exercising checkpoint/resume. It is a one-shot crash point, not a
	// probabilistic fault, so it does not make the plan Active on its own;
	// see CrashPoint.
	CrashAtTrial int

	// DriftAtTrials, when non-empty, shifts the *workload* (not a
	// measurement) once the listed trial counts have been dispatched: each
	// entry opens the next phase of a drift schedule (see
	// internal/jvmsim.PhaseShift). Like crash-at it is a session-level
	// trigger, not a per-attempt fault: it never enters Active(), the
	// failure-probability sum, or the ChaosRunner schedule — the session
	// layer extracts it into a phase schedule and clears it before the
	// measurement layer sees the plan. Entries must be strictly increasing
	// and ≥ 1.
	DriftAtTrials []int
}

// Plan knob defaults.
const (
	DefaultSpikeFactor    = 3.0
	DefaultStraggleFactor = 8.0
	DefaultHangSeconds    = 300.0
	DefaultCrashSeconds   = 5.0
	DefaultMaxConsecutive = 2
)

// normalized resolves defaulted knobs.
func (p Plan) normalized() Plan {
	if p.SpikeFactor < 1 {
		p.SpikeFactor = DefaultSpikeFactor
	}
	if p.StraggleFactor < 1 {
		p.StraggleFactor = DefaultStraggleFactor
	}
	if p.HangSeconds <= 0 {
		p.HangSeconds = DefaultHangSeconds
	}
	if p.CrashSeconds <= 0 {
		p.CrashSeconds = DefaultCrashSeconds
	}
	if p.MaxConsecutive < 1 {
		p.MaxConsecutive = DefaultMaxConsecutive
	}
	return p
}

// Active reports whether the plan injects anything at all.
func (p Plan) Active() bool {
	return p.Launch > 0 || p.Corrupt > 0 || p.Crash > 0 || p.Hang > 0 ||
		p.Spike > 0 || p.Straggle > 0
}

// failureProb is the total probability an attempt suffers an injected
// *failure* (spikes slow a run down but still succeed).
func (p Plan) failureProb() float64 {
	return p.Launch + p.Corrupt + p.Crash + p.Hang
}

// Validate rejects impossible plans.
func (p Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"launch", p.Launch}, {"corrupt", p.Corrupt}, {"crash", p.Crash},
		{"hang", p.Hang}, {"spike", p.Spike}, {"straggle", p.Straggle},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("faultinject: %s probability %g outside [0,1]", f.name, f.v)
		}
	}
	// node-down draws per placement, and the dispatch layer re-dispatches
	// until one succeeds — probability 1 would mean no placement ever can.
	if p.NodeDown < 0 || p.NodeDown >= 1 {
		return fmt.Errorf("faultinject: node-down probability %g outside [0,1)", p.NodeDown)
	}
	if sum := p.failureProb() + p.Spike + p.Straggle; sum > 1 {
		return fmt.Errorf("faultinject: fault probabilities sum to %g (> 1)", sum)
	}
	for i, at := range p.DriftAtTrials {
		if at < 1 {
			return fmt.Errorf("faultinject: drift-at trial %d below 1", at)
		}
		if i > 0 && at <= p.DriftAtTrials[i-1] {
			return fmt.Errorf("faultinject: drift-at trials must be strictly increasing, got %d after %d",
				at, p.DriftAtTrials[i-1])
		}
	}
	return nil
}

// String renders the plan in canonical DSL form (scenario name omitted).
func (p Plan) String() string {
	n := p.normalized()
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("launch", p.Launch)
	add("corrupt", p.Corrupt)
	add("crash", p.Crash)
	add("hang", p.Hang)
	add("spike", p.Spike)
	add("straggle", p.Straggle)
	if len(parts) > 0 {
		parts = append(parts,
			fmt.Sprintf("spike-factor=%g", n.SpikeFactor),
			fmt.Sprintf("hang-cost=%g", n.HangSeconds),
			fmt.Sprintf("crash-cost=%g", n.CrashSeconds),
			fmt.Sprintf("streak=%d", n.MaxConsecutive))
		// straggle-factor only matters — and only entered the canonical
		// form — when straggling is on: older checkpoints fingerprinted
		// straggle-free plans without it.
		if p.Straggle > 0 {
			parts = append(parts, fmt.Sprintf("straggle-factor=%g", n.StraggleFactor))
		}
	}
	// node-down, like crash-at, only enters the canonical form when set:
	// older checkpoints fingerprinted fleets-never-flap plans without it.
	if p.NodeDown > 0 {
		parts = append(parts, fmt.Sprintf("node-down=%g", p.NodeDown))
	}
	if p.CrashAtTrial > 0 {
		parts = append(parts, fmt.Sprintf("crash-at=%d", p.CrashAtTrial))
	}
	// drift-at, like crash-at, only enters the canonical form when set:
	// older checkpoints fingerprinted stationary plans without it.
	for _, at := range p.DriftAtTrials {
		parts = append(parts, fmt.Sprintf("drift-at=%d", at))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// scenarios are the named fault plans tests and operators reach for.
var scenarios = map[string]Plan{
	"none":            {},
	"flaky-launch":    {Launch: 0.15},
	"corrupt-reports": {Corrupt: 0.10},
	"crashy":          {Crash: 0.10},
	"hangs":           {Hang: 0.08},
	"latency-spikes":  {Spike: 0.20},
	"unstable-farm":   {Launch: 0.06, Corrupt: 0.03, Crash: 0.03, Hang: 0.02, Spike: 0.08},
	"hostile":         {Launch: 0.12, Corrupt: 0.06, Crash: 0.06, Hang: 0.04, Spike: 0.12, SpikeFactor: 4},
	// slow-trial: a farm whose harness occasionally stalls result delivery
	// by a large factor — the straggler-watchdog drill. The probability is
	// kept well under 10% so the watchdog's cost percentile (p90 by
	// default) stays dominated by clean deliveries; a denser straggle rate
	// would contaminate the percentile and the deadline would chase the
	// stragglers instead of catching them.
	"slow-trial": {Straggle: 0.06, StraggleFactor: 16},
	// overload-burst: a congested farm — stalled deliveries plus real
	// blocking hangs and flaky launches, the admission-control drill.
	"overload-burst": {Straggle: 0.15, StraggleFactor: 6, Launch: 0.05, Hang: 0.05},
	// node-flaps: a distributed fleet whose nodes keep dropping placements
	// while the harness also stalls deliveries — the flaps-during-hedge
	// drill. The node-down draws hit the dispatch layer (free, silent
	// re-dispatch); the straggles exercise the watchdog on top.
	"node-flaps": {NodeDown: 0.2, Straggle: 0.06, StraggleFactor: 16},
	// drift-midrun: the workload shifts regimes mid-session while the
	// harness also stalls deliveries — the drift-detection drill. The
	// single shift lands deep enough into the session that the pre-drift
	// incumbent is well established and genuinely stale afterwards.
	"drift-midrun": {Straggle: 0.06, StraggleFactor: 16, DriftAtTrials: []int{40}},
	// drift-storm: two regime shifts on a flapping distributed fleet —
	// drift recovery under node churn and stalled deliveries at once, the
	// everything-goes-wrong drill.
	"drift-storm": {NodeDown: 0.2, Straggle: 0.06, StraggleFactor: 16, DriftAtTrials: []int{30, 70}},
}

// Scenarios lists the named plans, sorted.
func Scenarios() []string {
	out := make([]string, 0, len(scenarios))
	for name := range scenarios {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Scenario returns a named plan.
func Scenario(name string) (Plan, bool) {
	p, ok := scenarios[name]
	p.Name = name
	return p, ok
}

// ParsePlan builds a plan from a scenario name or a DSL spec. The empty
// string is the empty plan. DSL keys: launch, corrupt, crash, hang, spike,
// straggle (probabilities in [0,1]); node-down (per-placement node-death
// probability in [0,1), distributed sessions only); spike-factor,
// straggle-factor, hang-cost, crash-cost (floats); streak (max consecutive
// injected failures per config, int ≥ 1); crash-at (kill the session after
// that many trials, int ≥ 1 — the checkpoint/resume drill); drift-at
// (shift the workload after that many trials, int ≥ 1, repeatable with
// strictly increasing values — the drift-detection drill).
func ParsePlan(spec string) (Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Plan{Name: "none"}, nil
	}
	if p, ok := Scenario(spec); ok {
		return p, nil
	}
	p := Plan{Name: spec}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		k, v, ok := strings.Cut(item, "=")
		if !ok {
			return Plan{}, fmt.Errorf(
				"faultinject: bad plan item %q (want key=value, or a scenario: %s)",
				item, strings.Join(Scenarios(), ", "))
		}
		k = strings.TrimSpace(k)
		if k == "streak" {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil || n < 1 {
				return Plan{}, fmt.Errorf("faultinject: streak needs an integer ≥ 1, got %q", v)
			}
			p.MaxConsecutive = n
			continue
		}
		if k == "crash-at" {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil || n < 1 {
				return Plan{}, fmt.Errorf("faultinject: crash-at needs a trial number ≥ 1, got %q", v)
			}
			p.CrashAtTrial = n
			continue
		}
		if k == "drift-at" {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil || n < 1 {
				return Plan{}, fmt.Errorf("faultinject: drift-at needs a trial number ≥ 1, got %q", v)
			}
			p.DriftAtTrials = append(p.DriftAtTrials, n)
			continue
		}
		x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return Plan{}, fmt.Errorf("faultinject: bad value in %q: %v", item, err)
		}
		switch k {
		case "launch":
			p.Launch = x
		case "node-down":
			p.NodeDown = x
		case "corrupt":
			p.Corrupt = x
		case "crash":
			p.Crash = x
		case "hang":
			p.Hang = x
		case "spike":
			p.Spike = x
		case "straggle":
			p.Straggle = x
		case "spike-factor":
			p.SpikeFactor = x
		case "straggle-factor":
			p.StraggleFactor = x
		case "hang-cost":
			p.HangSeconds = x
		case "crash-cost":
			p.CrashSeconds = x
		default:
			return Plan{}, fmt.Errorf("faultinject: unknown plan key %q", k)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}
