package main

import "testing"

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
