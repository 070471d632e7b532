package repro

// End-to-end tests of the command-line tools: build each binary once and
// drive it the way a user would.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/hotspot"
	"repro/internal/dispatch"
	"repro/internal/httpapi"
)

var (
	cliOnce sync.Once
	cliDir  string
	cliErr  error
)

// cliBinary builds cmd/<name> once per test run and returns its path.
func cliBinary(t *testing.T, name string) string {
	t.Helper()
	cliOnce.Do(func() {
		cliDir, cliErr = os.MkdirTemp("", "repro-cli")
		if cliErr != nil {
			return
		}
		for _, tool := range []string{"autotune", "experiments", "jvmsim", "flaginfo", "validate", "evald"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(cliDir, tool), "repro/cmd/"+tool)
			if out, err := cmd.CombinedOutput(); err != nil {
				cliErr = err
				os.Stderr.Write(out)
				return
			}
		}
	})
	if cliErr != nil {
		t.Skipf("cannot build CLI tools: %v", cliErr)
	}
	return filepath.Join(cliDir, name)
}

func TestCLIAutotuneList(t *testing.T) {
	out, err := exec.Command(cliBinary(t, "autotune"), "-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "startup.compiler.compiler") ||
		!strings.Contains(string(out), "h2") {
		t.Errorf("-list output incomplete:\n%s", out)
	}
}

func TestCLIAutotuneTunesAndSaves(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "result.json")
	tracePath := filepath.Join(dir, "trace.jsonl")
	cmd := exec.Command(cliBinary(t, "autotune"),
		"-benchmark", "fop", "-budget", "20", "-seed", "1",
		"-out", outPath, "-trace", tracePath, "-convergence")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("autotune failed: %v", err)
	}
	for _, want := range []string{"benchmark:    fop", "improvement:", "winning flags:", "convergence", "telemetry:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("saved JSON missing: %v", err)
	}
	var saved map[string]any
	if err := json.Unmarshal(data, &saved); err != nil {
		t.Fatalf("saved JSON malformed: %v", err)
	}
	if saved["workload"] != "fop" {
		t.Errorf("saved workload = %v", saved["workload"])
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
	first, _, _ := strings.Cut(string(trace), "\n")
	var ev map[string]any
	if err := json.Unmarshal([]byte(first), &ev); err != nil {
		t.Fatalf("trace is not JSONL: %v (line %q)", err, first)
	}
	if _, ok := ev["kind"]; !ok {
		t.Errorf("trace events carry no kind: %q", first)
	}
}

// TestCLIAutotuneTraceDeterministic is the acceptance check for the trace
// recorder: a fixed-seed chaos session at a multi-worker count writes a
// byte-identical trace file on every run.
func TestCLIAutotuneTraceDeterministic(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(path string) []byte {
		cmd := exec.Command(cliBinary(t, "autotune"),
			"-benchmark", "fop", "-budget", "20", "-seed", "7", "-workers", "3",
			"-chaos", "unstable-farm", "-trace", path)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("autotune failed: %v\n%s", err, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatal("empty trace file")
		}
		return data
	}
	a := runOnce(filepath.Join(dir, "a.jsonl"))
	b := runOnce(filepath.Join(dir, "b.jsonl"))
	if string(a) != string(b) {
		t.Error("fixed-seed chaos traces differ between runs")
	}
}

// TestCLIAutotuneCrashAndResume drills the crash-recovery workflow the way
// an operator would: the chaos crash-at fault kills the process with exit
// code 7, and rerunning with -resume produces a result file byte-identical
// to the uninterrupted run's.
func TestCLIAutotuneCrashAndResume(t *testing.T) {
	bin := cliBinary(t, "autotune")
	dir := t.TempDir()
	controlOut := filepath.Join(dir, "control.json")
	if out, err := exec.Command(bin,
		"-benchmark", "fop", "-budget", "20", "-seed", "9", "-workers", "2",
		"-out", controlOut).CombinedOutput(); err != nil {
		t.Fatalf("control run failed: %v\n%s", err, out)
	}

	ckpt := filepath.Join(dir, "session.ckpt")
	cmd := exec.Command(bin,
		"-benchmark", "fop", "-budget", "20", "-seed", "9", "-workers", "2",
		"-checkpoint", ckpt, "-checkpoint-every", "1", "-chaos", "crash-at=6")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 7 {
		t.Fatalf("crash-at run: err=%v, want exit code 7\n%s", err, out)
	}
	if !strings.Contains(string(out), "rerun with -resume") {
		t.Errorf("crash message should point at -resume:\n%s", out)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint not retained after the crash: %v", err)
	}

	resumedOut := filepath.Join(dir, "resumed.json")
	if out, err := exec.Command(bin,
		"-benchmark", "fop", "-budget", "20", "-seed", "9", "-workers", "2",
		"-checkpoint", ckpt, "-resume", "-out", resumedOut).CombinedOutput(); err != nil {
		t.Fatalf("resume run failed: %v\n%s", err, out)
	}
	want, err := os.ReadFile(controlOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumedOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed result file differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestCLIAutotuneBudgetDegradesGracefully is the acceptance check for
// best-effort budgets: a fixed-seed run killed by its trial budget exits 0
// and reports the best configuration found so far, marked degraded.
func TestCLIAutotuneBudgetDegradesGracefully(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "degraded.json")
	out, err := exec.Command(cliBinary(t, "autotune"),
		"-benchmark", "fop", "-budget", "200", "-seed", "4",
		"-max-trials", "12", "-out", outPath).CombinedOutput()
	if err != nil {
		t.Fatalf("budget-killed run must exit 0: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "degraded:") || !strings.Contains(s, "trial budget") {
		t.Errorf("output does not mark the result degraded:\n%s", s)
	}
	if !strings.Contains(s, "winning flags:") || !strings.Contains(s, "trials:") {
		t.Errorf("degraded run lost the best-so-far report:\n%s", s)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("degraded result not saved: %v", err)
	}
	var saved struct {
		Degraded       bool   `json:"degraded"`
		DegradedReason string `json:"degraded_reason"`
		Trials         int    `json:"trials"`
	}
	if err := json.Unmarshal(data, &saved); err != nil {
		t.Fatal(err)
	}
	if !saved.Degraded || !strings.Contains(saved.DegradedReason, "trial budget") || saved.Trials == 0 {
		t.Errorf("saved result: %+v", saved)
	}
}

// TestCLIAutotuneHedgeQuarantineFlags smoke-tests the robustness flags
// end to end under the straggler scenario.
func TestCLIAutotuneHedgeQuarantineFlags(t *testing.T) {
	out, err := exec.Command(cliBinary(t, "autotune"),
		"-benchmark", "fop", "-budget", "50", "-seed", "11", "-workers", "2",
		"-searcher", "hillclimb", "-chaos", "slow-trial", "-hedge", "-quarantine").CombinedOutput()
	if err != nil {
		t.Fatalf("hedged run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "hedging:") {
		t.Errorf("no hedging summary under slow-trial:\n%s", out)
	}
}

// TestCLIAutotuneFlagEffects: each of these autotune flags shows its
// effect in the output — an attribution block, a wall-clock degradation,
// a confirmed drift, a warm start from at most -transfer-k priors of a
// store holding three winners, the scenario list.
func TestCLIAutotuneFlagEffects(t *testing.T) {
	auto := cliBinary(t, "autotune")
	store := t.TempDir()
	for i, bench := range []string{"h2", "avrora", "fop"} {
		trainStore(t, auto, store, bench, 3+i)
	}
	scenarios := strings.Join(hotspot.ChaosScenarios(), "\n") + "\n"
	for _, tc := range []struct {
		flag string
		args []string
		want string // a regular expression the output must match
	}{
		{"-explain", []string{"-benchmark", "h2", "-budget", "30", "-seed", "7", "-explain"},
			`(?m)^flag attribution \(slowdown when reverted to default\):\n  \w+ +=`},
		{"-real-budget", []string{"-benchmark", "h2", "-seed", "7", "-real-budget", "1ns"},
			`(?m)^degraded: +wall-clock budget 1ns exhausted after \d+ trials`},
		{"-drift", []string{"-benchmark", "xalan", "-seed", "7", "-drift", "-chaos", "drift-at=40"},
			`(?m)^drift: +\d+ epochs \([1-9]\d* confirmed drifts\)\n  epoch 0 .* drift confirmed at trial \d+`},
		{"-transfer-k", []string{"-benchmark", "xalan", "-budget", "30", "-seed", "5",
			"-transfer-dir", store, "-transfer-k", "1"},
			`(?m)^transfer: +warm start — 1 priors from 3 stored entries`},
		{"-scenarios", []string{"-scenarios"}, "^" + regexp.QuoteMeta(scenarios) + "$"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			out, err := exec.Command(auto, tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("autotune %v: %v\n%s", tc.args, err, out)
			}
			if !regexp.MustCompile(tc.want).Match(out) {
				t.Errorf("autotune %v: output does not match %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
}

func TestCLIAutotuneErrors(t *testing.T) {
	bin := cliBinary(t, "autotune")
	if err := exec.Command(bin).Run(); err == nil {
		t.Error("no benchmark should exit non-zero")
	}
	if err := exec.Command(bin, "-benchmark", "nope").Run(); err == nil {
		t.Error("unknown benchmark should exit non-zero")
	}
	if err := exec.Command(bin, "-benchmark", "fop", "-searcher", "nope").Run(); err == nil {
		t.Error("unknown searcher should exit non-zero")
	}
}

// TestCLIAutotuneRejectsOutOfRangeSize: -workers and -reps past their
// bounds are usage errors (exit 2) before anything is measured.
func TestCLIAutotuneRejectsOutOfRangeSize(t *testing.T) {
	bin := cliBinary(t, "autotune")
	for _, args := range [][]string{
		{"-workers", fmt.Sprint(hotspot.MaxWorkers + 1)},
		{"-reps", fmt.Sprint(dispatch.MaxReps + 1)},
		{"-workers", "-1"},
	} {
		out, err := exec.Command(bin, append([]string{"-benchmark", "fop", "-budget", "1"}, args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "outside") {
			t.Errorf("%v: err=%v, want exit code 2 naming the range\n%s", args, err, out)
		}
	}
}

// TestEveryEntryPointRefusesBadOptions: options no session accepts are
// refused by hotspot.CheckOptions before anything is opened or built —
// through Tune and TuneCommon, by autotune as a usage error (exit 2), and
// by tuned as a 400 before the job exists — so a refused session leaves
// no transfer store behind. A budget whose seconds are not finite would
// be a session that never ends.
func TestEveryEntryPointRefusesBadOptions(t *testing.T) {
	suite, err := hotspot.Suite("dacapo")
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := httpapi.NewDurableServer(httpapi.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(tuned)
	defer srv.Close()
	bin := cliBinary(t, "autotune")
	for _, tc := range []struct {
		name string
		opts hotspot.Options
		args []string
		req  string
	}{
		{"negative retries", hotspot.Options{RetryAttempts: -1},
			[]string{"-retries", "-1"}, `"retry_attempts":-1`},
		{"node-down without a fleet", hotspot.Options{Chaos: "node-down=0.2"},
			[]string{"-chaos", "node-down=0.2"}, `"chaos":"node-down=0.2"`},
		{"drift sensitivity without drift", hotspot.Options{DriftSensitivity: 2},
			[]string{"-drift-sensitivity", "2"}, `"drift_sensitivity":2`},
		// tuned's job request has no objective field, so this row has no
		// POST leg.
		{"unknown objective", hotspot.Options{Objective: "bogus"},
			[]string{"-objective", "bogus"}, ""},
		// JSON holds no NaN or infinity, so only the budget rows whose
		// value it can carry have a POST leg.
		{"NaN budget", hotspot.Options{BudgetMinutes: math.NaN()},
			[]string{"-budget", "NaN"}, ""},
		{"infinite budget", hotspot.Options{BudgetMinutes: math.Inf(1)},
			[]string{"-budget", "+Inf"}, ""},
		{"budget whose seconds overflow", hotspot.Options{BudgetMinutes: 1e308},
			[]string{"-budget", "1e308"}, `"budget_minutes":1e308`},
		{"negative budget", hotspot.Options{BudgetMinutes: -5},
			[]string{"-budget", "-5"}, `"budget_minutes":-5`},
		{"negative real budget", hotspot.Options{RealBudgetSeconds: -1},
			[]string{"-real-budget", "-1s"}, ""},
		// -real-budget is a duration, which cannot be NaN: no CLI leg.
		{"NaN real budget", hotspot.Options{RealBudgetSeconds: math.NaN()}, nil, ""},
		{"negative max trials", hotspot.Options{MaxTrials: -1},
			[]string{"-max-trials", "-1"}, ""},
		{"negative checkpoint cadence", hotspot.Options{CheckpointEveryTrials: -1},
			[]string{"-checkpoint-every", "-1"}, ""},
		{"negative transfer k", hotspot.Options{TransferK: -1},
			[]string{"-transfer-k", "-1"}, ""},
		{"negative dispatch batch", hotspot.Options{DispatchBatch: -1},
			[]string{"-batch", "-1"}, ""},
		// Noise has no CLI flag and no job-request field: these rows
		// have no CLI or POST leg.
		{"NaN noise", hotspot.Options{Noise: math.NaN()}, nil, ""},
		{"infinite noise", hotspot.Options{Noise: math.Inf(1)}, nil, ""},
		{"noise 1e300", hotspot.Options{Noise: 1e300}, nil, ""},
		{"noise above the fleet's bound", hotspot.Options{Noise: 2}, nil, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := t.TempDir()
			// The 1-minute budget and the 5-trial cap end a session that
			// was wrongly accepted, so such a row fails instead of hanging.
			opts := tc.opts
			opts.Benchmark, opts.TransferDir = "h2", store
			if opts.BudgetMinutes == 0 {
				opts.BudgetMinutes = 1
			}
			if opts.MaxTrials == 0 {
				opts.MaxTrials = 5
			}
			if _, err := hotspot.Tune(opts); err == nil {
				t.Error("Tune accepted the options")
			}
			opts.TransferDir = ""
			if _, err := hotspot.TuneCommon(suite[:2], opts); err == nil {
				t.Error("TuneCommon accepted the options")
			}
			if tc.args != nil {
				// A flag given twice takes its last value, so a row's own
				// -budget or -max-trials wins over the defaults.
				args := append([]string{"-benchmark", "h2", "-budget", "1", "-max-trials", "5",
					"-transfer-dir", store}, tc.args...)
				out, err := exec.Command(bin, args...).CombinedOutput()
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 2 {
					t.Errorf("autotune %v: err=%v, want exit code 2\n%s", tc.args, err, out)
				}
			}
			if entries, err := os.ReadDir(store); err != nil || len(entries) > 0 {
				t.Errorf("a refused session left %v in the transfer directory (%v)", entries, err)
			}
			if tc.req == "" {
				return
			}
			// encoding/json keeps the last of a repeated key, so a row's
			// own budget_minutes wins over the 1-minute default too.
			resp, err := http.Post(srv.URL+"/v1/tune", "application/json",
				strings.NewReader(`{"benchmark":"h2","budget_minutes":1,`+tc.req+`}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST /v1/tune with %s: status %d, want 400", tc.req, resp.StatusCode)
			}
		})
	}
}

// TestCLIEvaldRefusesLongJoinInterval: a -join-interval whose lease no
// controller grants stops evald at startup with the Joiner's error,
// instead of a node that serves but never joins. The deadline bounds a
// node that starts serving anyway.
func TestCLIEvaldRefusesLongJoinInterval(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, cliBinary(t, "evald"), "-addr", "127.0.0.1:0",
		"-join", "127.0.0.1:1", "-advertise", "127.0.0.1:2", "-join-interval", "21m").CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("evald kept running with a 21m join interval:\n%s", out)
	}
	if err == nil || !strings.Contains(string(out), "join interval 21m0s") || strings.Contains(string(out), "serving") {
		t.Fatalf("err=%v, want a startup failure naming the interval\n%s", err, out)
	}
}

func TestCLIExperimentsQuickTable3(t *testing.T) {
	out, err := exec.Command(cliBinary(t, "experiments"), "-run", "table3").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "search-space reduction") {
		t.Errorf("table3 output:\n%s", out)
	}
}

func TestCLIExperimentsQuickTable1(t *testing.T) {
	out, err := exec.Command(cliBinary(t, "experiments"), "-run", "table1", "-quick", "-reps", "1").Output()
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	if !strings.Contains(s, "SPECjvm2008") || !strings.Contains(s, "average") ||
		!strings.Contains(s, "paper: average 19%") {
		t.Errorf("table1 output incomplete:\n%s", s)
	}
}

func TestCLIExperimentsUnknown(t *testing.T) {
	if err := exec.Command(cliBinary(t, "experiments"), "-run", "nope").Run(); err == nil {
		t.Error("unknown experiment should exit non-zero")
	}
}

func TestCLIFlaginfo(t *testing.T) {
	bin := cliBinary(t, "flaginfo")
	out, err := exec.Command(bin).Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "total") || !strings.Contains(string(out), "tunable") {
		t.Errorf("summary output:\n%s", out)
	}

	out, err = exec.Command(bin, "-flag", "CompileThreshold").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "CompileThreshold") || !strings.Contains(string(out), "default=10000") {
		t.Errorf("-flag output:\n%s", out)
	}

	out, err = exec.Command(bin, "-active", "--", "-XX:+UseG1GC", "-XX:-UseParallelGC").Output()
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	if !strings.Contains(s, "collector: g1") || !strings.Contains(s, "G1HeapRegionSize") {
		t.Errorf("-active output:\n%s", s)
	}
	if strings.Contains(s, "CMSInitiatingOccupancyFraction") {
		t.Error("CMS flags should be inactive under G1")
	}

	if err := exec.Command(bin, "-flag", "NoSuch").Run(); err == nil {
		t.Error("unknown flag should exit non-zero")
	}
	if err := exec.Command(bin, "-category", "nope").Run(); err == nil {
		t.Error("unknown category should exit non-zero")
	}
}

func TestCLIExperimentsCSVExport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	out, err := exec.Command(cliBinary(t, "experiments"),
		"-run", "table3", "-csv", dir, "-quick", "-reps", "1").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "wrote ") {
		t.Errorf("no files reported written:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 5 {
		t.Errorf("expected 5 CSV files, got %d (%v)", len(entries), err)
	}
}

func TestCLIValidateQuick(t *testing.T) {
	// A 25-minute budget is enough for every shape claim to hold.
	out, err := exec.Command(cliBinary(t, "validate"), "-budget", "25").Output()
	if err != nil {
		t.Fatalf("validate failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "claims hold") {
		t.Errorf("validate output:\n%s", out)
	}
	if strings.Contains(string(out), "FAIL") {
		t.Errorf("claims failed:\n%s", out)
	}
}

func TestCLIJvmsimAgainstAutotuneWinner(t *testing.T) {
	// A mini end-to-end: tune via autotune, then replay the winning flags
	// through the jvmsim launcher and confirm it beats the defaults.
	auto, sim := cliBinary(t, "autotune"), cliBinary(t, "jvmsim")
	outPath := filepath.Join(t.TempDir(), "r.json")
	if err := exec.Command(auto, "-benchmark", "startup.xml.validation",
		"-budget", "30", "-seed", "2", "-out", outPath).Run(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(outPath)
	var saved struct {
		CommandLine []string `json:"command_line"`
	}
	if err := json.Unmarshal(data, &saved); err != nil {
		t.Fatal(err)
	}

	run := func(args []string) float64 {
		out, err := exec.Command(sim, append(args, "startup.xml.validation")...).Output()
		if err != nil {
			t.Fatalf("jvmsim failed: %v", err)
		}
		var rep struct {
			WallSeconds float64 `json:"wall_seconds"`
		}
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatal(err)
		}
		return rep.WallSeconds
	}
	if tuned, def := run(saved.CommandLine), run(nil); tuned >= def {
		t.Errorf("replayed winner (%.1fs) should beat defaults (%.1fs)", tuned, def)
	}
}

func TestCLIJvmsimPrintGC(t *testing.T) {
	bin := cliBinary(t, "jvmsim")
	cmd := exec.Command(bin, "-XX:+PrintGC", "h2")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("jvmsim failed: %v", err)
	}
	log := stderr.String()
	if !strings.Contains(log, "[GC ") {
		t.Errorf("-XX:+PrintGC should emit a GC log, got:\n%.200s", log)
	}
	if !strings.Contains(log, "[Full GC ") {
		t.Error("h2 under defaults should log full GCs")
	}
	// Without the flag, stderr stays quiet.
	quiet := exec.Command(bin, "h2")
	var qerr strings.Builder
	quiet.Stderr = &qerr
	if err := quiet.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(qerr.String(), "[GC ") {
		t.Error("GC log printed without -XX:+PrintGC")
	}
}

// Regression: a -jvmsim session kills hopeless runs at the same virtual
// threshold as an in-process one (6× the default configuration's wall), so
// the two transports produce byte-identical results. Without the threshold
// the subprocess session let hopeless runs eat the budget and finished
// with far fewer trials.
func TestCLIJvmsimSessionMatchesInProcess(t *testing.T) {
	auto, sim := cliBinary(t, "autotune"), cliBinary(t, "jvmsim")
	dir := t.TempDir()
	run := func(name string, extra ...string) []byte {
		path := filepath.Join(dir, name)
		args := append([]string{"-benchmark", "startup.xml.validation", "-searcher", "random",
			"-seed", "6", "-budget", "30", "-workers", "2", "-out", path}, extra...)
		if out, err := exec.Command(auto, args...).CombinedOutput(); err != nil {
			t.Fatalf("autotune %v: %v\n%s", extra, err, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	local, sub := run("local.json"), run("jvmsim.json", "-jvmsim", sim)
	if !bytes.Equal(local, sub) {
		t.Errorf("-jvmsim result differs from the in-process one:\n%s\nvs\n%s", sub, local)
	}
}
