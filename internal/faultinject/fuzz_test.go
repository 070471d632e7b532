package faultinject

import (
	"bytes"
	"maps"
	"reflect"
	"testing"

	"repro/internal/flags"
	"repro/internal/runner"
	"repro/internal/workload"
)

// stateInner is the inner runner of the state fuzzer: a runner.State whose
// measurements cost nothing, so one more measurement cannot push a clock
// restored near its bound out of range. stream is the inner state stream
// it last restored or snapshotted; a State is a function of its stream
// (FuzzRunnerStateRestore), so equal streams mean equal inner states.
type stateInner struct {
	runner.State
	stream []byte
}

func (r *stateInner) Workload() *workload.Profile { return nil }

func (r *stateInner) Measure(cfg *flags.Config, reps int) runner.Measurement {
	key := cfg.Key()
	r.Reserve(key, reps)
	m := runner.Measurement{Key: key, Walls: []float64{1.5}, Mean: 1.5}
	r.Settle(key, m, true)
	return m
}

func (r *stateInner) SnapshotState() ([]byte, error) {
	b, err := r.State.SnapshotState()
	r.stream = b
	return b, err
}

func (r *stateInner) RestoreState(data []byte) error {
	if err := r.State.RestoreState(data); err != nil {
		return err
	}
	r.stream = append([]byte(nil), data...)
	return nil
}

// chaosView is everything a chaos layer's state stream carries.
type chaosView struct {
	elapsed, innerElapsed float64
	attempts              map[string]int
	inner                 []byte
}

func viewOf(c *ChaosRunner) chaosView {
	in := c.inner.(*stateInner)
	c.mu.Lock()
	defer c.mu.Unlock()
	return chaosView{
		elapsed: c.elapsed.Seconds(), innerElapsed: in.Elapsed(),
		attempts: maps.Clone(c.attempts), inner: bytes.Clone(in.stream),
	}
}

// FuzzChaosStateRestore hardens the chaos layer's state stream with
// FuzzRunnerStateRestore's contract: arbitrary bytes either fail to
// restore and change neither layer, or restore a layer whose clocks are
// in range, whose attempt counts are not negative, and whose next
// snapshot — after one more measurement, so the change tracking is
// exercised — extends the restored bytes and restores to the same
// counters, clocks and inner state. The seed corpus in testdata/fuzz
// holds one- and multi-segment streams (written with the streaks, settled
// and stats fields older builds kept, which restore ignores), a torn
// stream, out-of-range clocks, a negative attempt count, and a count of
// 2^40 on the key the fuzzer measures next.
func FuzzChaosStateRestore(f *testing.F) {
	// Every attempt is a spike: state changes on each measurement, and a
	// spiked zero cost is still zero.
	plan := Plan{Spike: 1, SpikeFactor: 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		a := New(&stateInner{}, plan, 1)
		a.Measure(testConfig(), 1)
		if _, err := a.SnapshotState(); err != nil {
			t.Fatal(err)
		}
		before := viewOf(a)
		if err := a.RestoreState(data); err != nil {
			if after := viewOf(a); !reflect.DeepEqual(after, before) {
				t.Fatalf("a refused stream changed the layers:\nbefore %+v\nafter  %+v", before, after)
			}
			return
		}
		restored := viewOf(a)
		for _, e := range []float64{restored.elapsed, restored.innerElapsed} {
			if err := runner.CheckClock(e); err != nil {
				t.Fatalf("restored a clock out of range: %v", err)
			}
		}
		for k, n := range restored.attempts {
			if n < 0 {
				t.Fatalf("restored attempt count %d for %q", n, k)
			}
		}
		cfg := testConfig()
		cfg.SetInt("MaxHeapSize", 1<<30)
		a.Measure(cfg, 1)
		snap, err := a.SnapshotState()
		if err != nil {
			t.Fatalf("restored state does not snapshot: %v", err)
		}
		if !bytes.HasPrefix(snap, data) {
			t.Fatal("snapshot does not extend the restored stream")
		}
		b := New(&stateInner{}, plan, 1)
		if err := b.RestoreState(snap); err != nil {
			t.Fatalf("snapshot does not restore: %v", err)
		}
		if va, vb := viewOf(a), viewOf(b); !reflect.DeepEqual(va, vb) {
			t.Fatalf("restore of the snapshot diverged:\nsnapshot %q\nlive     %+v\nrestored %+v", snap, va, vb)
		}
	})
}
