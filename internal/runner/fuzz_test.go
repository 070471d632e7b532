package runner

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzRunReportDecode hardens the subprocess wire format: any bytes that
// decode into a RunReport must re-encode and decode to the same value —
// the scraper never invents or loses fields on valid input, and invalid
// input fails cleanly instead of panicking. The seed corpus in testdata/fuzz
// replays on every normal `go test` run.
func FuzzRunReportDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"benchmark":"fop","rep":2,"wall_seconds":3.25}`,
		`{"benchmark":"h2","failed":true,"failure":"oom","failure_message":"OutOfMemoryError: heap"}`,
		`{"benchmark":"avrora","wall_seconds":1.5,"collector":"g1","gc_stop_seconds":0.12,"max_pause_seconds":0.03,"minor_gcs":14,"full_gcs":1}`,
		`{"benchmark":"фоп","wall_seconds":-1e308}`,
		`{"rep":-1,"wall_seconds":0.0000001}`,
		`{"benchmark":"x","unknown_field":[1,2,{"a":null}]}`,
		`[1,2,3]`,
		`{"wall_seconds":"not a number"}`,
		`{"benchmark":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var report RunReport
		if err := json.Unmarshal(data, &report); err != nil {
			// Corrupt input must be rejected, not crash — which is exactly
			// what the subprocess runner's corrupt-report path relies on.
			t.Skip()
		}
		out, err := json.Marshal(report)
		if err != nil {
			// Fuzzed JSON can smuggle values Go decodes but cannot re-encode
			// (NaN/Inf are not among them, but be explicit about the
			// invariant: a decoded report is always re-encodable).
			t.Fatalf("decoded report does not re-encode: %v (%+v)", err, report)
		}
		var back RunReport
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-encoded report does not decode: %v (%s)", err, out)
		}
		if back != report {
			t.Fatalf("report round trip changed values:\n  %+v\n  %+v", report, back)
		}
	})
}

// FuzzRunnerStateRestore hardens the runner-state stream: arbitrary bytes
// either fail to restore, or restore a State whose next snapshot — after
// one more measurement, so the change tracking is exercised — extends the
// restored bytes and restores to the same state. The seed corpus in
// testdata/fuzz holds streams, torn streams, out-of-range clocks,
// single-object states as builds before streams wrote them, a segment
// with launch counters, and a legacy chaos stream whose segments nest the
// inner runner's.
func FuzzRunnerStateRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var a State
		if err := a.RestoreState(data); err != nil {
			return
		}
		// Zero cost: a charge could push a clock restored near its bound
		// out of range, which the next restore rightly refuses.
		a.Reserve("fuzz", 1)
		a.nextLaunch("fuzz")
		a.Settle("fuzz", 0, &Measurement{Key: "fuzz", Walls: []float64{1.5}, Mean: 1.5})
		snap, err := a.SnapshotState()
		if err != nil {
			t.Fatalf("restored state does not snapshot: %v", err)
		}
		if !bytes.HasPrefix(snap, data) {
			t.Fatal("snapshot does not extend the restored stream")
		}
		var b State
		if err := b.RestoreState(snap); err != nil {
			t.Fatalf("snapshot does not restore: %v", err)
		}
		if a.elapsed != b.elapsed || !reflect.DeepEqual(a.reps, b.reps) || !reflect.DeepEqual(a.cache, b.cache) ||
			!reflect.DeepEqual(a.launches, b.launches) {
			t.Fatalf("restore of the snapshot diverged:\nsnapshot %q\nelapsed %v/%v reps %v/%v", snap, a.elapsed, b.elapsed, a.reps, b.reps)
		}
	})
}
