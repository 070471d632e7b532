package main

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"testing"
)

// TestMedianOfSamples: a metric run several times records its middle
// sample, so one stray run cannot move the recorded point.
func TestMedianOfSamples(t *testing.T) {
	for _, tc := range []struct {
		samples []float64
		want    float64
	}{
		{[]float64{12908, 8191, 9811, 10248, 10135}, 10135},
		{[]float64{3, 1, 4, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.samples); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.samples, got, tc.want)
		}
	}
}

// benchOutput is what `go test -bench` prints for one package on cpu.
func benchOutput(cpu string, nsPerOp float64) string {
	return "goos: linux\ngoarch: amd64\npkg: repro/internal/flags\ncpu: " + cpu + "\n" +
		fmt.Sprintf("BenchmarkConfigKeyCanonical-2   \t     100\t  %g ns/op\t0 B/op\t0 allocs/op\n", nsPerOp) +
		"PASS\nok  \trepro/internal/flags\t0.011s\n"
}

func mustRead(t *testing.T, out string) Point {
	t.Helper()
	p, err := readPoint(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFmtRecordsHost: a point records the host its run printed, and
// output that names two hosts is refused.
func TestFmtRecordsHost(t *testing.T) {
	p := mustRead(t, benchOutput("Xeon", 40)+benchOutput("Xeon", 42))
	want := map[string]string{"goos": "linux", "goarch": "amd64", "cpu": "Xeon"}
	if !maps.Equal(p.Host, want) {
		t.Fatalf("host = %v, want %v", p.Host, want)
	}
	if got := p.Benchmarks["BenchmarkConfigKeyCanonical"]["ns/op"]; got != 41 {
		t.Errorf("ns/op = %g, want the median 41", got)
	}
	if _, err := readPoint(strings.NewReader(benchOutput("Xeon", 40) + benchOutput("EPYC", 40))); err == nil {
		t.Error("output from two hosts made one point")
	}
}

// TestCheckComparesOneHost: check compares points from one host, and
// refuses, naming both hosts, a baseline from another host or from none —
// their differences would be the machines', not the builds'.
func TestCheckComparesOneHost(t *testing.T) {
	base := mustRead(t, benchOutput("Xeon", 40))
	var out bytes.Buffer
	if n, err := check(&out, base, mustRead(t, benchOutput("Xeon", 50)), "old.json", "new.json"); err != nil || n != 1 {
		t.Errorf("same host, 25%% slower: %d regressions, err %v, want 1 and nil\n%s", n, err, out.String())
	}
	if n, err := check(&out, base, mustRead(t, benchOutput("Xeon", 41)), "old.json", "new.json"); err != nil || n != 0 {
		t.Errorf("same host, 2.5%% slower: %d regressions, err %v, want none", n, err)
	}
	noHost := base
	noHost.Host = nil
	for name, old := range map[string]Point{
		"another host": mustRead(t, benchOutput("EPYC", 20)),
		"no host":      noHost,
	} {
		_, err := check(&out, old, base, "old.json", "new.json")
		if err == nil {
			t.Errorf("%s: check compared the points", name)
			continue
		}
		for _, want := range []string{fmt.Sprint(old.Host), fmt.Sprint(base.Host)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", name, err, want)
			}
		}
	}
}

// TestPairsTable: the pairs table reports each side's median and
// quartiles, the ratio of the medians, the pairs b won by the declared
// direction (a tie is no win, a pair missing a side is not counted), and
// whether b's median clears a's interquartile range.
func TestPairsTable(t *testing.T) {
	line := func(pair int, side string, tps, rss float64) string {
		return fmt.Sprintf(`{"pair":%d,"side":%q,"rev":"%s","workload":"inproc-search","seed":1,`+
			`"result":{"correct":true,"attempted":9,"failed":0,"metrics":{"trials_per_s":{"value":%g,"unit":"1/s"},"peak_rss_mb":{"value":%g,"unit":"MiB"}}}}`,
			pair, side, map[string]string{"a": "1100d3df50437c73", "b": "abcdef0123456789"}[side], tps, rss)
	}
	in := strings.Join([]string{
		line(1, "a", 100, 16), line(1, "b", 130, 16),
		line(2, "b", 125, 15), line(2, "a", 104, 16),
		line(3, "a", 98, 16), line(3, "b", 98, 17),
		line(4, "a", 102, 16), line(4, "b", 128, 15),
		line(5, "b", 200, 15),
	}, "\n")
	runs, err := readRuns(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := pairsTable(&out, runs, map[string]string{"trials_per_s": "higher", "peak_rss_mb": "lower"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"inproc-search, seed 1: a = 1100d3d (4 runs), b = abcdef0 (5 runs); runs not correct: a 0, b 0",
		"| trials_per_s (1/s) | 101 [99.5, 102.5] | 128 [125, 130] | 1.267 | 3/4 | yes |",
		"| peak_rss_mb (MiB) | 16 [16, 16] | 15 [15, 16] | 0.938 | 2/4 | yes |",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, out.String())
		}
	}
	if _, err := readRuns(strings.NewReader(`{"pair":1,"side":"c"}`)); err == nil {
		t.Error("a side other than a and b was read")
	}
}
