package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// abRun is one line of scripts/ab.sh's output: one prodbench run of one
// side of a pair, with prodbench's result object as it printed it.
type abRun struct {
	Pair     int    `json:"pair"`
	Side     string `json:"side"`
	Rev      string `json:"rev"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"result"`
}

func cmdPairs(args []string) {
	fs := flag.NewFlagSet("pairs", flag.ExitOnError)
	spec := fs.String("spec", "BENCHMARK.json", "benchmark declaration naming each metric's better direction")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	runs, err := readRuns(f)
	if err != nil {
		fatal("%s: %v", fs.Arg(0), err)
	}
	better, err := loadDirections(*spec)
	if err != nil {
		fatal("%v", err)
	}
	if err := pairsTable(os.Stdout, runs, better); err != nil {
		fatal("%v", err)
	}
}

// readRuns reads ab.sh's JSONL.
func readRuns(r io.Reader) ([]abRun, error) {
	var runs []abRun
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var run abRun
		if err := json.Unmarshal(sc.Bytes(), &run); err != nil {
			return nil, fmt.Errorf("line %d: %v", n, err)
		}
		if run.Side != "a" && run.Side != "b" {
			return nil, fmt.Errorf("line %d: side %q is neither a nor b", n, run.Side)
		}
		runs = append(runs, run)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, errors.New("no runs")
	}
	return runs, nil
}

// loadDirections reads "higher" or "lower" for every end-to-end and
// per-layer metric a benchmark declaration names.
func loadDirections(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	better := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		better[m.Name] = m.Better
	}
	return better, nil
}

// pairsTable writes one markdown table per workload and seed: for every
// metric, each side's median and quartiles, the ratio of the medians
// (b/a), the pairs in which b was better, and whether b's median is
// better than a's by more than a's interquartile range. Wins count only
// pairs with both sides present, and ties are not wins.
func pairsTable(w io.Writer, runs []abRun, better map[string]string) error {
	type group struct {
		workload string
		seed     int64
	}
	byGroup := map[group][]abRun{}
	var groups []group
	for _, r := range runs {
		g := group{r.Workload, r.Seed}
		if _, ok := byGroup[g]; !ok {
			groups = append(groups, g)
		}
		byGroup[g] = append(byGroup[g], r)
	}
	for _, g := range groups {
		rs := byGroup[g]
		rev := map[string]string{}
		values := map[string]map[string][]float64{"a": {}, "b": {}} // side → metric → values
		paired := map[string]map[int][2]float64{}                   // metric → pair → (a, b)
		units := map[string]string{}
		failed := map[string]int{}
		for _, r := range rs {
			if prev, ok := rev[r.Side]; ok && prev != r.Rev {
				return fmt.Errorf("%s seed %d: side %s holds two revisions, %s and %s", g.workload, g.seed, r.Side, prev, r.Rev)
			}
			rev[r.Side] = r.Rev
			if !r.Result.Correct {
				failed[r.Side]++
			}
			for name, m := range r.Result.Metrics {
				units[name] = m.Unit
				values[r.Side][name] = append(values[r.Side][name], m.Value)
				if paired[name] == nil {
					paired[name] = map[int][2]float64{}
				}
				p, ok := paired[name][r.Pair]
				if !ok {
					p = [2]float64{math.NaN(), math.NaN()}
				}
				if r.Side == "a" {
					p[0] = m.Value
				} else {
					p[1] = m.Value
				}
				paired[name][r.Pair] = p
			}
		}
		fmt.Fprintf(w, "%s, seed %d: a = %s (%d runs), b = %s (%d runs); runs not correct: a %d, b %d\n\n",
			g.workload, g.seed, short(rev["a"]), countSide(rs, "a"), short(rev["b"]), countSide(rs, "b"), failed["a"], failed["b"])
		fmt.Fprintln(w, "| metric | a median [Q1, Q3] | b median [Q1, Q3] | b/a | b better | beyond a's IQR |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|")
		var names []string
		for name := range units {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a, b := values["a"][name], values["b"][name]
			ma, mb := stats.Median(a), stats.Median(b)
			wins, beyond := "—", "—"
			if dir := better[name]; dir == "higher" || dir == "lower" {
				won, n := 0, 0
				for _, p := range paired[name] {
					if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
						continue
					}
					n++
					if dir == "higher" && p[1] > p[0] || dir == "lower" && p[1] < p[0] {
						won++
					}
				}
				wins = fmt.Sprintf("%d/%d", won, n)
				gain := mb - ma
				if dir == "lower" {
					gain = -gain
				}
				iqr := stats.Percentile(a, 75) - stats.Percentile(a, 25)
				beyond = "no"
				if gain > iqr {
					beyond = "yes"
				}
			}
			fmt.Fprintf(w, "| %s (%s) | %s | %s | %s | %s | %s |\n", name, units[name],
				spread(a), spread(b), ratioText(mb, ma), wins, beyond)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func countSide(rs []abRun, side string) int {
	n := 0
	for _, r := range rs {
		if r.Side == side {
			n++
		}
	}
	return n
}

// spread renders a sample as "median [Q1, Q3]".
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "—"
	}
	return fmt.Sprintf("%s [%s, %s]", num(stats.Median(xs)), num(stats.Percentile(xs, 25)), num(stats.Percentile(xs, 75)))
}

func ratioText(b, a float64) string {
	if a == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return "—"
	}
	return strconv.FormatFloat(b/a, 'f', 3, 64)
}

// num renders a metric value: whole numbers with thousands separators
// from 1,000 up, four significant digits below.
func num(v float64) string {
	if math.Abs(v) < 1000 {
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
	s := strconv.FormatInt(int64(math.Round(math.Abs(v))), 10)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	if v < 0 {
		s = "-" + s
	}
	return s
}

// short abbreviates a commit to 7 characters.
func short(rev string) string {
	if len(rev) > 7 {
		return rev[:7]
	}
	return rev
}
