// Command benchdiff turns `go test -bench` output into the repo's
// BENCH_<n>.json trajectory points and compares two points for regressions.
//
//	go test -bench . -benchmem ./... | benchdiff fmt -o BENCH_2.json
//	benchdiff check BENCH_1.json BENCH_2.json
//
// fmt reads benchmark output on stdin and writes one JSON object per suite
// run: ns/op, allocs/op, B/op, and any custom metrics (trials/s) keyed by
// benchmark name, with -note free text attached verbatim, and the host the
// run reports (its goos, goarch and cpu lines). A benchmark run several
// times (-count) records each metric's median sample.
//
// check compares builds, not machines: it refuses, with exit status 1 and
// both hosts named, two points recorded on different hosts or a point
// that records none. Otherwise it exits 1 when any benchmark present in
// both files got more than 10% slower (ns/op up, or a custom rate metric
// like trials/s down); new and vanished benchmarks are reported but never
// fail the check, so the suite can grow. It compares the recorded medians:
// one sample of a session benchmark can stray further than the threshold
// on an unchanged binary.
//
// pairs reads the JSONL that scripts/ab.sh appends (prodbench runs of two
// revisions, a and b, in alternating pairs) and prints one markdown table
// per workload and seed: every metric's median and quartiles on each
// side, the ratio of the medians, the pairs b won (by the direction
// BENCHMARK.json declares) and whether b's median is better than a's by
// more than a's interquartile range.
//
//	scripts/ab.sh 1100d3d HEAD inproc-search 10
//	benchdiff pairs .bench_build/ab/inproc-search-seed1.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Point is one recorded trajectory entry.
type Point struct {
	// Note is free-form context: what changed, what baseline this run
	// follows, machine quirks.
	Note string `json:"note,omitempty"`
	// Host is the machine the benchmarks ran on: the goos, goarch and cpu
	// lines of the run, by name. Points recorded before hosts were have
	// none.
	Host map[string]string `json:"host,omitempty"`
	// Benchmarks maps benchmark name (CPU suffix stripped) to its metrics:
	// always "ns/op" when present, plus "allocs/op", "B/op", and custom
	// rates such as "trials/s".
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "fmt":
		cmdFmt(os.Args[2:])
	case "check":
		cmdCheck(os.Args[2:])
	case "pairs":
		cmdPairs(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchdiff fmt [-o file] [-note text] < bench-output")
	fmt.Fprintln(os.Stderr, "       benchdiff check OLD.json NEW.json")
	fmt.Fprintln(os.Stderr, "       benchdiff pairs [-spec BENCHMARK.json] RUNS.jsonl")
	os.Exit(2)
}

func cmdFmt(args []string) {
	fs := flag.NewFlagSet("fmt", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	note := fs.String("note", "", "free-form note recorded with the point")
	_ = fs.Parse(args)

	p, err := readPoint(os.Stdin)
	if err != nil {
		fatal("%v", err)
	}
	p.Note = *note
	enc, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		fatal("encode: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal("write: %v", err)
	}
}

// readPoint reads `go test -bench` output: each metric's median sample,
// and the host every package's header names.
func readPoint(r io.Reader) (Point, error) {
	p := Point{Host: map[string]string{}, Benchmarks: map[string]map[string]float64{}}
	samples := map[[2]string][]float64{} // (name, unit) → every run's value
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if key, value, _ := strings.Cut(line, ": "); key == "goos" || key == "goarch" || key == "cpu" {
			if seen, ok := p.Host[key]; ok && seen != value {
				return Point{}, fmt.Errorf("the input names two hosts: %s %q and %q", key, seen, value)
			}
			p.Host[key] = value
			continue
		}
		name, metrics, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		p.Benchmarks[name] = metrics
		for unit, v := range metrics {
			samples[[2]string{name, unit}] = append(samples[[2]string{name, unit}], v)
		}
	}
	if err := sc.Err(); err != nil {
		return Point{}, fmt.Errorf("read: %v", err)
	}
	if len(p.Benchmarks) == 0 {
		return Point{}, fmt.Errorf("no benchmark lines on stdin")
	}
	for k, vs := range samples {
		p.Benchmarks[k[0]][k[1]] = median(vs)
	}
	return p, nil
}

// median returns the middle sample of vs, or the mean of the middle two.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	return (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
}

// parseBenchLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   123   4567 ns/op   89 B/op   1 allocs/op   15159 trials/s
func parseBenchLine(line string) (string, map[string]float64, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", nil, false
	}
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		// Strip the GOMAXPROCS suffix so points from different hosts compare.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	metrics := map[string]float64{}
	// f[1] is the iteration count; the rest are value/unit pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[f[i+1]] = v
	}
	if len(metrics) == 0 {
		return "", nil, false
	}
	return name, metrics, true
}

// rateMetric reports whether unit measures throughput (higher is better)
// rather than cost (lower is better).
func rateMetric(unit string) bool {
	return strings.HasSuffix(unit, "/s") || strings.HasSuffix(unit, "/sec")
}

const tolerance = 0.10

func cmdCheck(args []string) {
	if len(args) != 2 {
		usage()
	}
	regressions, err := check(os.Stdout, load(args[0]), load(args[1]), args[0], args[1])
	if err != nil {
		fatal("%v", err)
	}
	if regressions > 0 {
		fmt.Printf("benchdiff: %d regression(s) beyond %.0f%% vs %s\n",
			regressions, tolerance*100, args[0])
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no regressions beyond %.0f%% vs %s\n", tolerance*100, args[0])
}

// check reports each metric of oldP against newP on w and returns how many
// regressed. Points from different hosts, or without one, are an error:
// their differences are the machines', not the builds'.
func check(w io.Writer, oldP, newP Point, oldName, newName string) (int, error) {
	if len(oldP.Host) == 0 || !maps.Equal(oldP.Host, newP.Host) {
		return 0, fmt.Errorf("%s (host %v) and %s (host %v) were not recorded on one host; record a baseline on this host with scripts/bench.sh",
			oldName, oldP.Host, newName, newP.Host)
	}
	regressions := 0
	var names []string
	for name := range oldP.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		oldM := oldP.Benchmarks[name]
		newM, ok := newP.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "SKIP  %s: not in %s\n", name, newName)
			continue
		}
		for _, unit := range sortedUnits(oldM) {
			ov := oldM[unit]
			nv, ok := newM[unit]
			if !ok || ov == 0 {
				continue
			}
			change := nv/ov - 1
			bad := change > tolerance
			if rateMetric(unit) {
				bad = change < -tolerance
			}
			status := "ok   "
			if bad {
				status = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%s %-45s %-10s %12.4g -> %12.4g  (%+.1f%%)\n",
				status, name, unit, ov, nv, change*100)
		}
	}
	return regressions, nil
}

func sortedUnits(m map[string]float64) []string {
	var out []string
	for u := range m {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

func load(path string) Point {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var p Point
	if err := json.Unmarshal(data, &p); err != nil {
		fatal("%s: %v", path, err)
	}
	return p
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}
