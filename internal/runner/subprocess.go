package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/workload"
)

// RunReport is the JSON document cmd/jvmsim prints for every run. It is the
// wire format between the subprocess runner and the fake launcher.
type RunReport struct {
	Benchmark      string  `json:"benchmark"`
	Rep            int     `json:"rep"`
	WallSeconds    float64 `json:"wall_seconds"`
	Failed         bool    `json:"failed"`
	Failure        string  `json:"failure,omitempty"`
	FailureMessage string  `json:"failure_message,omitempty"`
	Collector      string  `json:"collector,omitempty"`
	GCStopSeconds  float64 `json:"gc_stop_seconds"`
	MaxPauseSecs   float64 `json:"max_pause_seconds"`
	MinorGCs       float64 `json:"minor_gcs"`
	FullGCs        float64 `json:"full_gcs"`
}

// RepEnvVar carries the repetition index to the jvmsim subprocess, keeping
// its argv purely java-shaped.
const RepEnvVar = "JVMSIM_REP"

// Subprocess measures by launching the cmd/jvmsim binary with java-style
// arguments, exercising the same orchestration code path a tuner driving a
// real `java` would use: argument rendering, environment, exit codes, and
// output scraping. It is safe for concurrent use.
type Subprocess struct {
	// BinPath is the jvmsim executable.
	BinPath string
	// RealTimeout bounds each launch in real time (not virtual time). A
	// run killed by this deadline is a TimeoutFailure and charges
	// TimeoutSeconds of virtual budget, exactly like the virtual-timeout
	// path.
	RealTimeout time.Duration
	// TimeoutSeconds is the virtual harness timeout, as in InProcess, and
	// NewSubprocess defaults it the same way: 6× the default
	// configuration's wall time under the model cmd/jvmsim runs.
	TimeoutSeconds float64

	// Harness holds the retry policy, telemetry, clock, rep indices and
	// cache. Transient failures here are launches that die without a
	// report and corrupt reports; telemetry includes real-deadline kills.
	Harness

	profile *workload.Profile
}

// NewSubprocess builds a subprocess runner for the given binary and profile.
func NewSubprocess(binPath string, p *workload.Profile) *Subprocess {
	return &Subprocess{
		BinPath:        binPath,
		RealTimeout:    30 * time.Second,
		TimeoutSeconds: 6 * jvmsim.New().DefaultWall(flags.NewRegistry(), p, 1),
		profile:        p,
	}
}

// Workload returns the profile being measured.
func (r *Subprocess) Workload() *workload.Profile { return r.profile }

// Measure implements Runner.
func (r *Subprocess) Measure(cfg *flags.Config, reps int) Measurement {
	return r.Run(cfg, reps, 0, true, func(repBase, reps int) Measurement {
		m := Measurement{Key: cfg.Key()}
		for i := 0; i < reps; i++ {
			rep, err := r.launch(cfg, repBase+i)
			if err != nil {
				m.Failed = true
				m.Failure, m.CostSeconds = classifyLaunchError(err, r.TimeoutSeconds, m.CostSeconds)
				m.FailureMessage = err.Error()
				break
			}
			res := jvmsim.Result{
				WallSeconds: rep.WallSeconds, MaxPauseSeconds: rep.MaxPauseSecs,
				Failed: rep.Failed, Failure: jvmsim.FailureKind(rep.Failure), FailureMessage: rep.FailureMessage,
			}
			if !m.addRep(&res, r.TimeoutSeconds) {
				break
			}
		}
		finalizeMeans(&m)
		return m
	})
}

// classifyLaunchError maps a launch error to a failure kind and the cost to
// add for the attempt. A kill by the real-time deadline is a timeout: the
// harness waited the full timeout out, so it charges TimeoutSeconds like
// the virtual-timeout path (the launch overhead rides on top either way).
// Anything else — the process never ran, or its report was unreadable — is
// transient and charges only the wasted launch overhead.
func classifyLaunchError(err error, timeoutSeconds, cost float64) (jvmsim.FailureKind, float64) {
	switch {
	case errors.Is(err, errRealTimeout):
		return TimeoutFailure, cost + timeoutSeconds + LaunchOverheadSeconds
	case errors.Is(err, errCorruptReport):
		return CorruptReportFailure, cost + LaunchOverheadSeconds
	default:
		return LaunchFlakeFailure, cost + LaunchOverheadSeconds
	}
}

// Sentinel launch errors; Measure classifies them via classifyLaunchError.
var (
	errRealTimeout   = errors.New("runner: killed by the real-time launch deadline")
	errCorruptReport = errors.New("runner: corrupt report")
)

// launch runs the binary once and parses its report. The binary exits 1 on
// simulated JVM failures but still prints a report, exactly like scraping a
// crashed java run's output; only missing/corrupt output is an error here.
func (r *Subprocess) launch(cfg *flags.Config, rep int) (*RunReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.RealTimeout)
	defer cancel()
	// The canonical form: everything the simulated VM can tell apart,
	// including a forced default whose explicitness matters (an explicit
	// -XX:+UseParallelGC conflicts with another collector).
	args := append(cfg.ExplicitArgs(), r.profile.Name)
	cmd := exec.CommandContext(ctx, r.BinPath, args...)
	cmd.Env = append(cmd.Environ(), RepEnvVar+"="+strconv.Itoa(rep))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	if ctx.Err() == context.DeadlineExceeded {
		// The harness killed the run: whatever output exists is from a
		// process that was cut down mid-write, so don't trust it.
		return nil, fmt.Errorf("%w after %s", errRealTimeout, r.RealTimeout)
	}

	var report RunReport
	if jsonErr := json.Unmarshal(stdout.Bytes(), &report); jsonErr != nil {
		if runErr != nil {
			return nil, fmt.Errorf("runner: jvmsim failed without a report: %v (stderr: %s)",
				runErr, bytes.TrimSpace(stderr.Bytes()))
		}
		return nil, fmt.Errorf("%w: cannot parse jvmsim report: %v", errCorruptReport, jsonErr)
	}
	return &report, nil
}
