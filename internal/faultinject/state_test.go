package faultinject

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// segments decodes a chaos state stream into its segments' raw fields.
func segments(t *testing.T, stream []byte) []map[string]json.RawMessage {
	t.Helper()
	var out []map[string]json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(stream))
	for {
		var seg map[string]json.RawMessage
		if err := dec.Decode(&seg); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatal(err)
		}
		out = append(out, seg)
	}
}

// A chaos session's state is the harness's one stream: each segment holds
// the clock, and the rep indices, cache entries and launch counters
// changed since the segment before — no nested stream, nothing derived.
func TestChaosSegmentHoldsClockAndAttempts(t *testing.T) {
	p, _ := workload.ByName("fop")
	ch := New(runner.NewInProcess(jvmsim.New(), p), Plan{Launch: 0.5, Spike: 0.3}, 3)
	cfg := testConfig()
	ch.Measure(cfg, 2)
	first, err := ch.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	ch.Measure(cfg, 2) // a cache replay: no attempt, nothing changed
	other := testConfig()
	other.SetInt("MaxHeapSize", 1<<30)
	ch.Measure(other, 2)
	stream, err := ch.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(stream, first) {
		t.Fatal("the second snapshot does not extend the first")
	}
	segs := segments(t, stream)
	if len(segs) != 2 {
		t.Fatalf("stream holds %d segments, want 2", len(segs))
	}
	for i, seg := range segs {
		var fields []string
		for k := range seg {
			fields = append(fields, k)
		}
		sort.Strings(fields)
		if want := []string{"attempts", "cache", "elapsed", "reps"}; !slices.Equal(fields, want) {
			t.Errorf("segment %d holds %v, want %v", i, fields, want)
		}
	}
	var attempts map[string]int
	if err := json.Unmarshal(segs[1]["attempts"], &attempts); err != nil {
		t.Fatal(err)
	}
	if _, ok := attempts[other.Key()]; !ok || len(attempts) != 1 {
		t.Errorf("the second segment's attempts %v should name only the key measured since", attempts)
	}
}

// Streams checkpoint formats 1 to 3 wrote nest the inner runner's segment
// in a chaos segment, and formats 1 and 2 also carry streaks, settled
// keys and fault counts. Restoring folds the nesting, takes the outer
// clock, and ignores the rest: the counters come from the attempts, the
// settled keys from the cache, and the streaks from the schedule.
func TestRestoreIgnoresLegacyFields(t *testing.T) {
	key := testConfig().Key()
	entry := `{"` + key + `":{"Key":"` + key + `","Walls":[2],"Mean":2,"Pauses":[0.1],"MeanPause":0.1,` +
		`"Failed":false,"Failure":"","FailureMessage":"","CostSeconds":2.5,"FromCache":false,"Attempts":1,"Flakes":0,"Transient":false}}`
	inner := `{"elapsed":4,"reps":{"` + key + `":1},"cache":` + entry + `}`
	v2 := []byte(`{"elapsed":12,"attempts":{"` + key + `":2},` +
		`"streaks":{"` + key + `":2,"MaxHeapSize=1073741824":1},` +
		`"settled":{"MaxHeapSize=1073741824":true},` +
		`"stats":{"Attempts":9,"Launch":4,"Corrupt":0,"Crash":0,"Hang":0,"Spike":0,"Straggle":0,"Suppressed":2},` +
		`"inner":` + inner + `}`)
	v3 := []byte(`{"elapsed":12,"attempts":{"` + key + `":2},"inner":` + inner + `}`)
	v4 := []byte(`{"elapsed":12,"reps":{"` + key + `":1},"cache":` + entry + `,"attempts":{"` + key + `":2}}`)
	plan := Plan{Launch: 0.5, MaxConsecutive: 2}
	measure := func(stream []byte) (runner.Measurement, runner.Measurement, float64) {
		ch := New(newFake(okRun), plan, 5)
		if err := ch.RestoreState(stream); err != nil {
			t.Fatal(err)
		}
		elapsed := ch.Elapsed()
		other := testConfig()
		other.SetInt("MaxHeapSize", 1<<30)
		return ch.Measure(testConfig(), 1), ch.Measure(other, 1), elapsed
	}
	m1, m2, me := measure(v4)
	if !m1.FromCache || me != 12 {
		t.Fatalf("the v4 stream restored clock %g and replay %+v", me, m1)
	}
	for name, stream := range map[string][]byte{"v2": v2, "v3": v3} {
		l1, l2, le := measure(stream)
		if !reflect.DeepEqual(l1, m1) || !reflect.DeepEqual(l2, m2) || le != me {
			t.Errorf("%s stream restores differently:\nlegacy %+v %+v %g\nv4     %+v %+v %g", name, l1, l2, le, m1, m2, me)
		}
		if l2.FromCache {
			t.Errorf("%s: a key the legacy stream called settled but the cache lacks must be measured: %+v", name, l2)
		}
	}
}
