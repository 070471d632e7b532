package jvmsim

import "testing"

func TestFormatGCLogQuietWorkload(t *testing.T) {
	r := Result{WallSeconds: 10} // no collections
	if FormatGCLog(r) != "" {
		t.Error("no collections should mean no log")
	}
	if FormatGCLog(Result{Failed: true}) != "" {
		t.Error("failed runs have no log")
	}
}
