package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/hotspot"
)

// TestTraceReportNamesDroppedEvents: a trace whose ring overflowed is
// reported with the events it lost and the seq its file starts at, and a
// complete one reads as before. The report leaves the trace's bytes alone.
func TestTraceReportNamesDroppedEvents(t *testing.T) {
	tr := hotspot.NewTracer(4)
	for i := 0; i < 3; i++ {
		tr.Emit(hotspot.TraceEvent{Kind: "barrier"})
	}
	if got, want := traceReport(tr, "t.jsonl"), "trace:        3 events → t.jsonl"; got != want {
		t.Errorf("complete trace reported %q, want %q", got, want)
	}
	for i := 0; i < 7; i++ {
		tr.Emit(hotspot.TraceEvent{Kind: "barrier"})
	}
	var before bytes.Buffer
	if err := tr.WriteJSONL(&before); err != nil {
		t.Fatal(err)
	}
	got := traceReport(tr, "t.jsonl")
	if want := "4 events → t.jsonl (6 events dropped; the file starts at seq 6)"; !strings.HasSuffix(got, want) {
		t.Errorf("overflowed trace reported %q, want it to end %q", got, want)
	}
	var after bytes.Buffer
	if err := tr.WriteJSONL(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) || !strings.HasPrefix(after.String(), `{"seq":6,`) {
		t.Errorf("trace bytes moved or start elsewhere:\n%s", after.String())
	}
}
