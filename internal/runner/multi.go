package runner

import (
	"fmt"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Multi measures one configuration against a *set* of workloads and scores
// it by the mean normalized wall time (each program's wall divided by its
// default-configuration wall). Minimizing that mean finds a single "common"
// configuration for the whole suite — the deployment-relevant variant of
// the paper's per-program tuning, where one JVM setup must serve every
// service on a box.
//
// A configuration that fails on any member workload fails outright: a
// common config must run everywhere. Costs accumulate across members, so a
// 200-minute budget buys proportionally fewer trials than per-program
// tuning — exactly the trade-off the experiment measures.
type Multi struct {
	sim      *jvmsim.Simulator
	profiles []*workload.Profile
	baseline []float64 // default walls, the normalization denominators
	pseudo   *workload.Profile

	// TimeoutSeconds per member run; defaults to 6× that member's baseline.
	timeouts []float64

	// Retry bounds re-attempts of transient failures; the zero value means
	// the defaults (see RetryPolicy). Set before the first Measure call.
	Retry RetryPolicy
	// Telemetry and Trace optionally receive runner metrics and per-attempt
	// trace events; see telemetry.go.
	Telemetry *telemetry.Registry
	Trace     *telemetry.Tracer

	// State holds the clock, rep indices and cache, and snapshots them.
	State
}

// NewMulti builds a multi-workload runner over the given profiles.
func NewMulti(sim *jvmsim.Simulator, profiles []*workload.Profile) (*Multi, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("runner: Multi needs at least one workload")
	}
	m := &Multi{sim: sim, profiles: profiles}
	reg := flags.NewRegistry()
	def := flags.NewConfig(reg)
	name := "suite:"
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		res := sim.Run(def, p, 0)
		if res.Failed {
			return nil, fmt.Errorf("runner: %s fails under defaults: %s", p.Name, res.FailureMessage)
		}
		m.baseline = append(m.baseline, res.WallSeconds)
		m.timeouts = append(m.timeouts, 6*res.WallSeconds)
		if i > 0 {
			name += "+"
		}
		name += p.Name
	}
	// The pseudo-profile identifies the aggregate in session outputs. It
	// borrows the first member's shape so it validates. Clone guarantees
	// independence: renaming the aggregate (or any future mutation) can
	// never corrupt the first member workload.
	pseudo := profiles[0].Clone()
	pseudo.Name = name
	pseudo.Suite = "multi"
	m.pseudo = pseudo
	return m, nil
}

// Workload returns a pseudo-profile naming the aggregate.
func (m *Multi) Workload() *workload.Profile { return m.pseudo }

// MemberWalls measures cfg once per member and returns the raw walls —
// used by reports to show the common config's per-program cost. Failures
// yield negative entries.
func (m *Multi) MemberWalls(cfg *flags.Config, reps int) []float64 {
	out := make([]float64, len(m.profiles))
	for i, p := range m.profiles {
		sum, n := 0.0, 0
		for rep := 0; rep < reps; rep++ {
			res := m.sim.Run(cfg, p, rep)
			if res.Failed {
				n = 0
				break
			}
			sum += res.WallSeconds
			n++
		}
		if n == 0 {
			out[i] = -1
			continue
		}
		out[i] = sum / float64(n)
	}
	return out
}

// Baselines returns each member's default-configuration wall time.
func (m *Multi) Baselines() []float64 {
	return append([]float64(nil), m.baseline...)
}

// Measure implements Runner. Mean is the mean *normalized* wall across
// members (1.0 ≡ default performance), so Session improvement percentages
// read as suite-average improvements.
func (m *Multi) Measure(cfg *flags.Config, reps int) Measurement {
	if reps < 1 {
		reps = 1
	}
	key := cfg.Key()

	if cached, ok := m.Cached(key, reps); ok {
		NoteCacheHit(m.Telemetry, m.Trace, key)
		return cached
	}

	out := m.Retry.Run(func(n int) Measurement {
		repBase := m.Reserve(key, reps)
		out := Measurement{Key: key}
		for rep := 0; rep < reps && !out.Failed; rep++ {
			normSum := 0.0
			for i, p := range m.profiles {
				res := m.sim.Run(cfg, p, repBase+rep)
				cost := res.WallSeconds + LaunchOverheadSeconds
				if !res.Failed && res.WallSeconds > m.timeouts[i] {
					res.Failed = true
					res.Failure = TimeoutFailure
					res.FailureMessage = fmt.Sprintf("%s killed after %.0fs", p.Name, m.timeouts[i])
					cost = m.timeouts[i] + LaunchOverheadSeconds
				}
				out.CostSeconds += cost
				if res.Failed {
					out.Failed = true
					out.Failure = res.Failure
					out.FailureMessage = fmt.Sprintf("%s: %s", p.Name, res.FailureMessage)
					break
				}
				normSum += res.WallSeconds / m.baseline[i]
			}
			if !out.Failed {
				out.Walls = append(out.Walls, normSum/float64(len(m.profiles)))
			}
		}
		if len(out.Walls) > 0 && !out.Failed {
			sum := 0.0
			for _, w := range out.Walls {
				sum += w
			}
			out.Mean = sum / float64(len(out.Walls))
		}
		NoteAttempt(m.Telemetry, m.Trace, key, n, n > 0, out)
		return out
	})
	NoteMeasured(m.Telemetry, m.Trace, key, out)
	m.Settle(key, out, true)
	return out
}
