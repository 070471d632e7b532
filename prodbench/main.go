// Command prodbench is the repository's production-shaped benchmark. It runs
// whole tuning sessions through hotspot.TuneContext — the default
// hierarchical searcher at the paper budget, with the program's own trace
// and telemetry on — one after another in a closed loop with one client, and
// reports end-to-end metrics per workload. With --trace 1 it instead
// rebuilds the same sessions from the layers' public constructors, times
// every call at their seams, and reports per-layer metrics. See README.md.
//
//	prodbench --workload inproc-search --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run builds its workload fixture; setup_s is
// the median. The last fixture built is the one the run measures.
const setups = 3

// workRoot holds the fixtures of running benchmarks, relative to the
// checkout root the benchmark runs from; each run removes its own.
var workRoot = filepath.Join(".bench_build", "work")

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the session loop measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()

	setup, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "prodbench: unknown workload %q (have %v)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "prodbench: --trace must be 0 or 1\n")
		return 2
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "prodbench: %v\n", err)
		return 1
	}
	root, err := os.MkdirTemp(workRoot, *name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "prodbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(root)

	fx, setupS, err := setUp(setup, root, *seed, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prodbench: set-up: %v\n", err)
		return 1
	}
	defer fx.close()
	if err := fx.prime(); err != nil {
		fmt.Fprintf(os.Stderr, "prodbench: %v\n", err)
		return 1
	}

	var res *result
	if *trace == 1 {
		res, err = runTraced(fx, secondsDuration(*seconds))
	} else {
		res, err = runPlain(fx, secondsDuration(*seconds))
		if err == nil {
			res.metric("setup_s", setupS, "s")
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "prodbench: %v\n", err)
		return 1
	}
	for _, m := range res.misses {
		fmt.Fprintf(os.Stderr, "prodbench: failed session: %s\n", m)
	}
	info := map[string]any{
		"workload": *name, "seed": *seed, "trace": *trace, "seconds": *seconds,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"sessions": res.attempted, "distinct_sessions": len(fx.specs),
	}
	for k, v := range res.info {
		info[k] = v
	}
	line, _ := json.Marshal(map[string]any{"run": info})
	fmt.Println(string(line))
	line, err = json.Marshal(res.report())
	if err != nil {
		fmt.Fprintf(os.Stderr, "prodbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func secondsDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setUp builds the workload's fixture setups times, each from scratch in
// its own directory, and returns the last one with the median build time,
// as process CPU time like the session timings.
func setUp(setup setupFunc, root string, seed int64, traced bool) (*fixture, float64, error) {
	var times []float64
	var fx *fixture
	for i := 0; i < setups; i++ {
		if fx != nil {
			fx.close()
		}
		dir := filepath.Join(root, fmt.Sprintf("setup%d", i))
		c0 := processCPU()
		var err error
		fx, err = setup(dir, seed, traced)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, (processCPU() - c0).Seconds())
	}
	return fx, quantile(times, 0.5), nil
}

// result is one run's outcome: the session accounting and its metrics.
type result struct {
	attempted, failed int
	misses            []string
	metrics           map[string]metricValue
	info              map[string]any
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{metrics: map[string]metricValue{}, info: map[string]any{}}
}

func (r *result) metric(name string, v float64, unit string) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// miss records one failed session with its reason.
func (r *result) miss(format string, args ...any) {
	r.failed++
	if len(r.misses) < 20 {
		r.misses = append(r.misses, fmt.Sprintf(format, args...))
	}
}

func (r *result) report() map[string]any {
	return map[string]any{
		"correct":   r.failed == 0 && r.attempted > 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	}
}

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
