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

// A chaos segment holds the clock, the attempt counters changed since the
// segment before, and the inner runner's segment — nothing derived.
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
		if want := []string{"attempts", "elapsed", "inner"}; !slices.Equal(fields, want) {
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

// Streams older builds wrote carry streaks, settled keys and fault
// counts. Restoring ignores them: the counters come from the attempts,
// the settled keys from the inner cache, and the streaks from the
// schedule.
func TestRestoreIgnoresLegacyFields(t *testing.T) {
	key := testConfig().Key()
	legacy := []byte(`{"elapsed":12,"attempts":{"` + key + `":2},` +
		`"streaks":{"` + key + `":2,"MaxHeapSize=1073741824":1},` +
		`"settled":{"MaxHeapSize=1073741824":true},` +
		`"stats":{"Attempts":9,"Launch":4,"Corrupt":0,"Crash":0,"Hang":0,"Spike":0,"Straggle":0,"Suppressed":2},` +
		`"inner":{"elapsed":4}}`)
	modern := []byte(`{"elapsed":12,"attempts":{"` + key + `":2},"inner":{"elapsed":4}}`)
	plan := Plan{Launch: 0.5, MaxConsecutive: 2}
	measure := func(stream []byte) (runner.Measurement, runner.Measurement) {
		ch := New(&stateInner{}, plan, 5)
		if err := ch.RestoreState(stream); err != nil {
			t.Fatal(err)
		}
		other := testConfig()
		other.SetInt("MaxHeapSize", 1<<30)
		return ch.Measure(testConfig(), 1), ch.Measure(other, 1)
	}
	l1, l2 := measure(legacy)
	m1, m2 := measure(modern)
	if !reflect.DeepEqual(l1, m1) || !reflect.DeepEqual(l2, m2) {
		t.Errorf("legacy fields changed what the restored layer measures:\nlegacy %+v %+v\nmodern %+v %+v", l1, l2, m1, m2)
	}
	if l2.FromCache {
		t.Errorf("a key the legacy stream called settled but the inner cache lacks must be measured: %+v", l2)
	}
}
