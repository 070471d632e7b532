package faultinject

import (
	"bytes"
	"testing"

	"repro/internal/flags"
	"repro/internal/runner"
)

// freeRun is the body of the state fuzzer's runner: a measurement that
// costs nothing, so one more measurement cannot push a clock restored near
// its bound out of range.
func freeRun(cfg *flags.Config, _ int) runner.Measurement {
	return runner.Measurement{Key: cfg.Key(), Walls: []float64{1.5}, Mean: 1.5}
}

// FuzzChaosStateRestore hardens a chaos session's state stream — the
// harness's one stream, restored through the handle — with
// FuzzRunnerStateRestore's contract: arbitrary bytes either fail to
// restore and leave the handle going on exactly as a twin that never saw
// them, or restore a state whose clock is in range, whose launch counts
// are not negative, and whose next snapshot — after one more measurement,
// so the change tracking is exercised — extends the restored bytes and
// restores to a handle that goes on identically. The seed corpus in
// testdata/fuzz holds streams that checkpoint formats 1 to 3 wrote (chaos
// segments nesting the inner runner's, some with the streaks, settled and
// stats fields those builds kept), a torn stream, out-of-range clocks, a
// negative attempt count, and a count of 2^40 on the key the fuzzer
// measures next, in JSON and in a binary segment; binary streams whole
// and torn; and a legacy chaos stream a restore extended with a binary
// segment.
func FuzzChaosStateRestore(f *testing.F) {
	// Every attempt is a spike: state changes on each measurement, and a
	// spiked zero cost is still zero.
	plan := Plan{Spike: 1, SpikeFactor: 2}
	fresh := func(t *testing.T) *ChaosRunner {
		ch := New(newFake(freeRun), plan, 1)
		ch.Measure(testConfig(), 1)
		if _, err := ch.SnapshotState(); err != nil {
			t.Fatal(err)
		}
		return ch
	}
	next := testConfig()
	next.SetInt("MaxHeapSize", 1<<30)
	after := testConfig()
	after.SetInt("MaxHeapSize", 1<<31)
	// step measures cfg on ch and returns its next snapshot.
	step := func(t *testing.T, ch *ChaosRunner, cfg *flags.Config) []byte {
		ch.Measure(cfg, 1)
		snap, err := ch.SnapshotState()
		if err != nil {
			t.Fatalf("state does not snapshot: %v", err)
		}
		return snap
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, twin := fresh(t), fresh(t)
		if err := a.RestoreState(data); err != nil {
			if sa, st := step(t, a, next), step(t, twin, next); !bytes.Equal(sa, st) || a.Elapsed() != twin.Elapsed() {
				t.Fatalf("a refused stream changed the state:\nrefused %q\ntwin    %q", sa, st)
			}
			return
		}
		if err := runner.CheckClock(a.Elapsed()); err != nil {
			t.Fatalf("restored a clock out of range: %v", err)
		}
		snap := step(t, a, next)
		if !bytes.HasPrefix(snap, data) {
			t.Fatal("snapshot does not extend the restored stream")
		}
		for k, n := range launchesIn(t, snap) {
			if n < 0 {
				t.Fatalf("restored attempt count %d for %q", n, k)
			}
		}
		b := New(newFake(freeRun), plan, 1)
		if err := b.RestoreState(snap); err != nil {
			t.Fatalf("snapshot does not restore: %v", err)
		}
		if sa, sb := step(t, a, after), step(t, b, after); !bytes.Equal(sa, sb) || a.Elapsed() != b.Elapsed() {
			t.Fatalf("restore of the snapshot diverged:\nlive     %q\nrestored %q", sa, sb)
		}
	})
}
