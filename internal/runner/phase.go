package runner

import (
	"fmt"
	"sync"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/workload"
)

// PhaseSetter is the contract between runners and phase-shifting workloads
// (drift sessions; see internal/jvmsim.PhaseSchedule). The session calls
// SetPhase between rounds — rounds are barriers, so no measurement is ever
// in flight across a phase switch — and subsequent measurements run against
// the shifted profile.
//
// Phase bookkeeping is internal: measurement keys, traces, and telemetry
// stay keyed by the configuration alone, while the runner's rep indices and
// cache become per-(phase, config) so a configuration measured before a
// shift is genuinely re-measured after it (the pre-drift verdict is stale
// evidence, not a cache hit). Phase 0 uses the unprefixed keys, so a runner
// that never leaves phase 0 is byte-identical — cache, snapshots, elapsed —
// to one that has no phase support at all.
//
// The chaos handle (internal/faultinject) forwards SetPhase to its inner
// runner, whose harness scopes the launch counters the same way.
type PhaseSetter interface {
	// SetPhase switches subsequent measurements to the given phase: shift
	// applied to the base profile. Phase 0 with the identity shift restores
	// the base. It fails closed on a shift that does not produce a valid
	// profile.
	SetPhase(phase int, shift jvmsim.PhaseShift) error
}

// PhaseKey scopes a per-config state key to a phase — the shared
// convention for every phase-aware runner's internal maps (and therefore
// its serialized state), so a checkpoint taken under any of them restores
// under the same rules. Phase 0 is the bare key: pre-drift state (and
// pre-drift checkpoints) stay byte-compatible with runners that know
// nothing about phases.
func PhaseKey(phase int, key string) string {
	if phase == 0 {
		return key
	}
	return fmt.Sprintf("ph%d|%s", phase, key)
}

// PhaseTimeout rescales a harness kill threshold for a shifted profile by
// the ratio of default-configuration wall times. The timeout models the
// operator's kill threshold, calibrated against the workload's baseline
// (runners default it to 6× the default config's wall); after a drift that
// baseline moved, and a threshold still calibrated to the old regime would
// kill every honest run of the new one — starving the session of the very
// measurements a re-tune needs. Pure in (sim, profiles), so every
// phase-aware runner derives the identical threshold. A zero (disabled)
// base timeout stays disabled.
func PhaseTimeout(baseTimeout float64, sim *jvmsim.Simulator, base, eff *workload.Profile) float64 {
	if baseTimeout <= 0 || eff == base {
		return baseTimeout
	}
	reg := flags.NewRegistry()
	bw := sim.DefaultWall(reg, base, 1)
	if bw <= 0 {
		return baseTimeout
	}
	return baseTimeout * sim.DefaultWall(reg, eff, 1) / bw
}

// PhaseSwitch is the phase state of a runner that follows phase-shifting
// workloads: InProcess and the dispatch pool hold one and implement
// PhaseSetter through Set. The zero value is phase 0 on the base profile
// and is safe for concurrent use. Runners whose attempts cannot run a
// shifted profile (Subprocess, Multi) hold none, and so cannot shift.
type PhaseSwitch struct {
	mu    sync.Mutex
	phase int
	shift jvmsim.PhaseShift
	eff   *workload.Profile // the shifted profile; nil before the first Set
	// timeout0 captures the kill threshold at the first Set: phase
	// timeouts rescale from the base-profile threshold (see PhaseTimeout),
	// so repeated shifts never compound.
	timeout0 float64
}

// Set switches to phase: shift applied to base, validated before anything
// changes. It rescales *timeout, the runner's kill threshold, from its
// value at the first Set (PhaseTimeout under sim). Phase 0 restores base.
func (s *PhaseSwitch) Set(phase int, shift jvmsim.PhaseShift, sim *jvmsim.Simulator, base *workload.Profile, timeout *float64) error {
	eff, err := shift.Apply(base)
	if err != nil {
		return err
	}
	if phase == 0 {
		eff = base
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eff == nil {
		s.timeout0 = *timeout
	}
	s.phase, s.shift, s.eff = phase, shift, eff
	*timeout = PhaseTimeout(s.timeout0, sim, base, eff)
	return nil
}

// Current returns the phase, its shift, and the profile measurements run
// against — base until the first Set. Phases only change between rounds
// (the PhaseSetter contract), so a Measure call never races a Set.
func (s *PhaseSwitch) Current(base *workload.Profile) (int, jvmsim.PhaseShift, *workload.Profile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.eff == nil {
		return s.phase, s.shift, base
	}
	return s.phase, s.shift, s.eff
}
