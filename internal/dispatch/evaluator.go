// Package dispatch is the distributed evaluation plane: it extracts the
// trial-dispatch seam of internal/runner into a transport-agnostic
// Evaluator interface (dispatch a keyed trial, get a measurement or a
// typed failure) and builds a fleet Pool on top of it — sharded dispatch
// with work-stealing, per-node in-flight accounting, heartbeats, circuit
// breakers, and node-death re-dispatch — that plugs into core.Session as
// an ordinary runner.Runner.
//
// The determinism contract: a measurement is a pure function of
// (config, benchmark, repBase, reps, timeout, noise) — runner.EvalConfig —
// and never of which node computed it. Node deaths are therefore handled
// *inside* a single attempt at zero virtual cost: the trial is silently
// re-dispatched with the same repBase to another live node, because the
// failed placement never ran anywhere. A fixed-seed session produces
// byte-identical traces, checkpoints, and reports whether trials ran
// in-process, on one node, or on a flapping fleet — the virtual economy
// models the JVM farm, not our transport.
package dispatch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Evaluator is the transport seam: one evaluation attempt in, one
// measurement (or typed failure) out. Implementations must be safe for
// concurrent use.
type Evaluator interface {
	// Name identifies the node for accounting and diagnostics.
	Name() string
	// Evaluate performs the attempt described by req. A returned error
	// means the placement failed (node unreachable, shed, or the request
	// was refused) and carries the classification; the measurement's own
	// failures (crashes, timeouts) travel inside TrialResult.
	Evaluate(ctx context.Context, req *TrialRequest) (*TrialResult, error)
}

// Eval is the transport-independent evaluation core shared by the Local
// evaluator and the evald server: validate, parse the config, verify the
// key, and measure via runner.EvalConfig under the request's noise model.
// It rejects with *RequestError — never panics — on any bogus input.
func Eval(prof *workload.Profile, reg *flags.Registry, req *TrialRequest) (*TrialResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if prof == nil || prof.Name != req.Benchmark {
		return nil, reject(CodeBadBenchmark, "dispatch: benchmark %q not served here", req.Benchmark)
	}
	// Parse into pooled scratch: the config lives only for this call (the
	// simulator reads it and retains nothing), so recycling it keeps the
	// config's value arrays — the dominant per-trial allocation — off the
	// evaluation hot path.
	cfg := reg.AcquireConfig()
	defer reg.ReleaseConfig(cfg)
	if err := req.ParseConfigInto(cfg); err != nil {
		return nil, err
	}
	// Drift sessions ship the phase shift with every request: the node
	// derives the shifted profile exactly as a local runner would, so the
	// measurement stays a pure function of the request alone.
	if req.Shift != nil {
		shifted, err := req.Shift.Apply(prof)
		if err != nil {
			return nil, reject(CodeBadPayload, "dispatch: %v", err)
		}
		prof = shifted
	}
	noise := req.Noise
	if noise < 0 {
		noise = jvmsim.DefaultNoise
	}
	sim := &jvmsim.Simulator{Machine: jvmsim.DefaultMachine(), NoiseRelStdDev: noise}
	m := runner.EvalConfig(sim, prof, cfg, req.RepBase, req.Reps, req.TimeoutSeconds)
	return &TrialResult{Measurement: m}, nil
}

// EvalBatch is the transport-independent batch core shared by Local and
// the evald server: every trial evaluates independently (and concurrently
// — batch wall time tracks the slowest trial, not the sum), and a
// per-trial rejection becomes that entry's envelope so one bogus trial
// never condemns its siblings.
func EvalBatch(prof *workload.Profile, reg *flags.Registry, req *BatchRequest) *BatchResult {
	out := &BatchResult{Entries: make([]BatchEntry, len(req.Trials))}
	eval := func(i int) {
		res, err := Eval(prof, reg, &req.Trials[i])
		if err != nil {
			env := &ErrorEnvelope{Error: err.Error(), Code: CodeInternal}
			var re *RequestError
			if errors.As(err, &re) {
				env.Code = re.Code
			}
			out.Entries[i] = BatchEntry{Error: env}
			return
		}
		out.Entries[i] = BatchEntry{Result: res}
	}
	// Bounded workers pulling from a shared index counter, not one
	// goroutine per trial: the evaluation call tree is deep enough that a
	// fresh goroutine pays stack growth on every trial, which at batch
	// width dominates the work itself. A worker amortizes that growth
	// across all the trials it drains, and extra workers beyond the CPU
	// count buy nothing for a compute-bound simulator. One worker's share
	// — a batch of one, every single-trial placement — runs on the
	// caller's goroutine, whose stack has already grown.
	workers := min(runtime.GOMAXPROCS(0), len(req.Trials))
	if workers == 1 {
		for i := range req.Trials {
			eval(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(req.Trials); i = int(next.Add(1)) - 1 {
				eval(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// Local is the in-process Evaluator: the same evaluation core the evald
// server runs, minus the HTTP hop. It exists so the Pool's dispatch
// machinery (sharding, stealing, re-dispatch, fleet accounting) is
// testable and usable without sockets, and serves as the differential
// oracle the remote path is proven against.
type Local struct {
	// Label names the node; defaults to "local".
	Label string
	// Prof is the profile served.
	Prof *workload.Profile

	reg *flags.Registry
}

// NewLocal builds a local evaluator for prof.
func NewLocal(prof *workload.Profile, label string) *Local {
	if label == "" {
		label = "local"
	}
	return &Local{Label: label, Prof: prof, reg: flags.NewRegistry()}
}

// Name implements Evaluator.
func (l *Local) Name() string { return l.Label }

// Evaluate implements Evaluator.
func (l *Local) Evaluate(_ context.Context, req *TrialRequest) (*TrialResult, error) {
	res, err := Eval(l.Prof, l.reg, req)
	if err != nil {
		return nil, err
	}
	res.Node = l.Label
	return res, nil
}

// EvaluateBatch implements BatchEvaluator, so the pool places on a Local
// node exactly as on a remote one, without sockets.
func (l *Local) EvaluateBatch(_ context.Context, req *BatchRequest) (*BatchResult, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	res := EvalBatch(l.Prof, l.reg, req)
	res.Node = l.Label
	for i := range res.Entries {
		if res.Entries[i].Result != nil {
			res.Entries[i].Result.Node = l.Label
		}
	}
	return res, nil
}
