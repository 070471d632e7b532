package faultinject

import (
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// faultKind is what one attempt suffers.
type faultKind int

const (
	faultNone faultKind = iota
	faultLaunch
	faultCorrupt
	faultCrash
	faultHang
	faultSpike
	faultStraggle
)

// ChaosRunner is the handle of a chaos session: New installs it as the
// fault source (runner.Faults) of the inner runner's harness, which then
// draws the Plan's faults for every attempt it does not replay from its
// cache, retries them in its one loop, and charges them to its one clock.
// The handle measures through the inner runner and shares its harness —
// Retry, Telemetry and Trace set on the handle are the harness's, and so
// are Elapsed, SnapshotState and RestoreState — and it keeps the chaos
// identity: PlanString and the checkpoint fingerprint.
//
// Determinism: the fault for attempt n of configuration key k is a pure
// hash of (Seed, k, n), and n is the key's launch counter in the harness
// state, which only depends on that key's own history, never on goroutine
// scheduling. So sessions stay reproducible at any worker count. The
// streak of consecutive injected failures an attempt follows is derived
// from the schedule too: the key's trailing run of failure draws, modulo
// MaxConsecutive+1 (a suppressed draw ends a capped streak).
type ChaosRunner struct {
	// Harness is the inner runner's: its Retry bounds re-attempts (never
	// below the plan's streak cap plus one, so a configuration that only
	// ever failed transiently is never condemned), and its Telemetry and
	// Trace receive the runner_* and chaos_* series.
	*runner.Harness
	// HangDeadline bounds injected hangs in real time — the harness really
	// blocks, the way a wedged launch really blocks a worker, and the
	// deadline really cuts it down. Values ≤ 0 mean 25ms.
	HangDeadline time.Duration

	inner runner.Runner
	plan  Plan
	seed  int64
	// alwaysFails is set when every draw of the schedule is a failure
	// fault, so a streak needs no walk back through the schedule.
	alwaysFails bool
}

// New makes a chaos handle for inner, driven by plan and seed: a plan
// that injects anything becomes the fault source of inner's harness. inner
// must be built on a runner.Harness (every caching runner is); New panics
// otherwise.
func New(inner runner.Runner, plan Plan, seed int64) *ChaosRunner {
	hr, ok := inner.(interface{ MeasurementHarness() *runner.Harness })
	if !ok {
		panic(fmt.Sprintf("faultinject: %T is not built on a runner.Harness", inner))
	}
	c := &ChaosRunner{Harness: hr.MeasurementHarness(), inner: inner, plan: plan.normalized(), seed: seed}
	// The draws that fail form a prefix of [0, 1), so the largest draw
	// fails only when every draw does.
	c.alwaysFails = isFailureFault(c.plan.faultAt(maxDraw))
	if c.plan.Active() {
		c.Faults = c
	}
	return c
}

// Runner returns what a session measures through: the handle, with the
// inner runner's MeasureBatch when the inner runner is a
// runner.BatchMeasurer (the dispatch pool), so each retry round of a chaos
// round is one placement wave.
func (c *ChaosRunner) Runner() runner.Runner {
	if bm, ok := c.inner.(runner.BatchMeasurer); ok {
		return struct {
			*ChaosRunner
			runner.BatchMeasurer
		}{c, bm}
	}
	return c
}

// Plan returns the normalized fault plan in effect.
func (c *ChaosRunner) Plan() Plan { return c.plan }

// PlanString renders the active fault schedule in canonical DSL form. The
// checkpoint layer folds it into the session fingerprint, so a run cannot
// resume under a different chaos plan than the one it crashed with.
func (c *ChaosRunner) PlanString() string { return c.plan.String() }

// DeterminismFingerprint is the handle's checkpoint identity, whichever
// runner it measures through.
func (c *ChaosRunner) DeterminismFingerprint() string {
	return "*faultinject.ChaosRunner(" + c.PlanString() + ")"
}

// Workload returns the wrapped runner's profile.
func (c *ChaosRunner) Workload() *workload.Profile { return c.inner.Workload() }

// Measure implements runner.Runner.
func (c *ChaosRunner) Measure(cfg *flags.Config, reps int) runner.Measurement {
	return c.inner.Measure(cfg, reps)
}

// SetPhase implements runner.PhaseSetter: the inner runner switches to the
// shifted profile, and its harness scopes the launch counters (and with
// them the seeded fault schedule) to the new phase, as it does the cache.
func (c *ChaosRunner) SetPhase(phase int, shift jvmsim.PhaseShift) error {
	ps, ok := c.inner.(runner.PhaseSetter)
	if !ok {
		return fmt.Errorf("faultinject: inner runner %T does not support phase-shifting workloads", c.inner)
	}
	return ps.SetPhase(phase, shift)
}

// MinAttempts implements runner.Faults: the plan caps consecutive injected
// failures per key at MaxConsecutive, so MaxConsecutive+1 attempts always
// reach a clean one.
func (c *ChaosRunner) MinAttempts() int { return c.plan.MaxConsecutive + 1 }

// Draw implements runner.Faults: the seeded schedule's fault for launch n
// of state key sk, with a failure draw at the streak cap suppressed.
func (c *ChaosRunner) Draw(sk string, n int) *runner.Fault {
	kind := c.faultFor(sk, n)
	switch {
	case kind == faultNone:
		return nil
	case isFailureFault(kind) && c.streakBefore(sk, n) >= c.plan.MaxConsecutive:
		return &runner.Fault{Suppressed: true}
	}
	f := &runner.Fault{Kind: faultName(kind)}
	switch kind {
	case faultLaunch:
		f.Failure, f.Cost = runner.LaunchFlakeFailure, runner.LaunchOverheadSeconds
		f.Message = fmt.Sprintf("faultinject: launch failed (attempt %d)", n)
	case faultCorrupt:
		f.Failure, f.Cost = runner.CorruptReportFailure, c.plan.CrashSeconds+runner.LaunchOverheadSeconds
		f.Message = fmt.Sprintf("faultinject: report truncated (attempt %d)", n)
	case faultCrash:
		f.Failure, f.Cost = runner.InjectedCrashFailure, c.plan.CrashSeconds+runner.LaunchOverheadSeconds
		f.Message = fmt.Sprintf("faultinject: spurious crash (attempt %d)", n)
	case faultHang:
		f.Hang = c.HangDeadline
		if f.Hang <= 0 {
			f.Hang = 25 * time.Millisecond
		}
		f.Failure, f.Cost = runner.InjectedHangFailure, c.plan.HangSeconds+runner.LaunchOverheadSeconds
		f.Message = fmt.Sprintf("faultinject: hung, killed after %s (attempt %d)", f.Hang, n)
	case faultSpike:
		f.Scale = c.plan.SpikeFactor
	case faultStraggle:
		f.Stall = c.plan.StraggleFactor
	}
	return f
}

// streakBefore is the streak of consecutive injected failures key sk
// carries into attempt n: each failure draw extends it, a clean draw ends
// it, and a failure draw at MaxConsecutive is suppressed and ends it too,
// so it is the trailing run of failure draws before n modulo
// MaxConsecutive+1. The walk back is as long as that run.
func (c *ChaosRunner) streakBefore(sk string, n int) int {
	run := n
	if !c.alwaysFails {
		run = 0
		for i := n - 1; i >= 0 && isFailureFault(c.faultFor(sk, i)); i-- {
			run++
		}
	}
	return run % (c.plan.MaxConsecutive + 1)
}

// faultName labels kinds in metrics and trace events.
func faultName(k faultKind) string {
	switch k {
	case faultLaunch:
		return "launch"
	case faultCorrupt:
		return "corrupt"
	case faultCrash:
		return "crash"
	case faultHang:
		return "hang"
	case faultSpike:
		return "spike"
	case faultStraggle:
		return "straggle"
	}
	return "none"
}

func isFailureFault(k faultKind) bool {
	switch k {
	case faultLaunch, faultCorrupt, faultCrash, faultHang:
		return true
	}
	return false
}

// faultFor is the seeded schedule: a pure hash of (seed, key, attempt)
// mapped onto the plan's cumulative fault probabilities.
func (c *ChaosRunner) faultFor(key string, attempt int) faultKind {
	return c.plan.faultAt(hash01(c.seed, key, attempt))
}

// faultAt maps a draw u in [0, 1) onto the plan's cumulative fault
// probabilities, failure kinds first.
func (p Plan) faultAt(u float64) faultKind {
	for _, f := range []struct {
		p float64
		k faultKind
	}{
		{p.Launch, faultLaunch},
		{p.Corrupt, faultCorrupt},
		{p.Crash, faultCrash},
		{p.Hang, faultHang},
		{p.Spike, faultSpike},
		{p.Straggle, faultStraggle},
	} {
		if u < f.p {
			return f.k
		}
		u -= f.p
	}
	return faultNone
}

// maxDraw is the largest draw hash01 returns.
const maxDraw = float64(1<<53-1) / (1 << 53)

// hash01 maps (seed, key, attempt) to a uniform float in [0, 1).
func hash01(seed int64, key string, attempt int) float64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
		buf[8+i] = byte(uint64(attempt) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(key))
	return float64(h.Sum64()>>11) / float64(uint64(1)<<53)
}
