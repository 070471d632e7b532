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
