package telemetry

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestTracerEmitAndEvents(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(Event{Kind: EvBaseline, T: 1})
	tr.Emit(Event{Kind: EvBarrier, T: 2})
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Kind != EvBaseline || evs[1].Kind != EvBarrier {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Errorf("seq not assigned in order: %+v", evs)
	}
}

func TestTracerRecordCommitOrder(t *testing.T) {
	tr := NewTracer(0)
	tr.Record("a", Event{Kind: EvAttempt, Attempt: 0})
	tr.Record("a", Event{Kind: EvRetry, Attempt: 1})
	tr.Record("b", Event{Kind: EvCacheHit})
	tr.Commit("b", 10)
	tr.Commit("a", 20)
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	// b committed first, then a's two events in record order.
	if evs[0].Key != "b" || evs[0].T != 10 {
		t.Errorf("evs[0] = %+v", evs[0])
	}
	if evs[1].Kind != EvAttempt || evs[2].Kind != EvRetry || evs[2].T != 20 {
		t.Errorf("a's group out of order: %+v", evs[1:])
	}
	// Committing a key twice is harmless.
	tr.Commit("a", 30)
	if tr.Len() != 3 {
		t.Error("empty commit should add nothing")
	}
}

func TestTracerRingDropsOldest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 7; i++ {
		tr.Emit(Event{Kind: EvObserve, Trial: i})
	}
	if tr.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Trial != i+3 {
			t.Errorf("evs[%d].Trial = %d, want %d (oldest dropped first)", i, ev.Trial, i+3)
		}
	}
}

func TestTracerPendingCap(t *testing.T) {
	tr := NewTracer(0)
	for i := 0; i < pendingCapPerKey+10; i++ {
		tr.Record("k", Event{Kind: EvAttempt, Attempt: i})
	}
	tr.Commit("k", 1)
	if tr.Len() != pendingCapPerKey {
		t.Errorf("len = %d, want %d", tr.Len(), pendingCapPerKey)
	}
	if tr.Dropped() != 10 {
		t.Errorf("dropped = %d, want 10", tr.Dropped())
	}
}

func TestTracerFlushSortsKeys(t *testing.T) {
	tr := NewTracer(0)
	tr.Record("zz", Event{Kind: EvAttempt})
	tr.Record("aa", Event{Kind: EvAttempt})
	tr.Flush()
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Key != "aa" || evs[1].Key != "zz" {
		t.Errorf("flush should commit in sorted-key order: %+v", evs)
	}
	if evs[0].T != -1 {
		t.Errorf("flushed events get T = -1, got %g", evs[0].T)
	}
}

func TestTracerWriteJSONLDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := NewTracer(0)
		tr.Record("cfg-a", Event{Kind: EvAttempt, Attempt: 0, Cost: 12.5, Detail: "ok"})
		tr.Commit("cfg-a", 13)
		tr.Emit(Event{Kind: EvObserve, Key: "cfg-a", T: 13, Trial: 1, Score: 12.5})
		tr.Record("cfg-b", Event{Kind: EvFault, Detail: "launch"})
		return tr
	}
	var a, b strings.Builder
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("JSONL not deterministic:\n%s\n---\n%s", a.String(), b.String())
	}
	lines := strings.Split(strings.TrimSuffix(a.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), a.String())
	}
	if !strings.HasPrefix(lines[0], `{"seq":0,"t":13,"kind":"attempt","key":"cfg-a"`) {
		t.Errorf("line 0 = %s", lines[0])
	}
	if !strings.Contains(lines[2], `"kind":"fault"`) || !strings.Contains(lines[2], `"t":-1`) {
		t.Errorf("uncommitted event should flush with t=-1: %s", lines[2])
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		key := strings.Repeat("k", g+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(key, Event{Kind: EvAttempt, Attempt: i})
			}
		}()
	}
	wg.Wait()
	tr.Flush()
	if tr.Len() != 800 {
		t.Errorf("len = %d, want 800", tr.Len())
	}
	// Per-key record order survives concurrency.
	last := map[string]int{}
	for _, ev := range tr.Events() {
		if prev, ok := last[ev.Key]; ok && ev.Attempt != prev+1 {
			t.Fatalf("key %q out of order: %d after %d", ev.Key, ev.Attempt, prev)
		}
		last[ev.Key] = ev.Attempt
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: EvObserve})
	tr.Record("k", Event{Kind: EvAttempt})
	tr.Commit("k", 1)
	tr.Flush()
	if tr.Events() != nil || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer should read as empty")
	}
	if err := tr.WriteJSONL(&strings.Builder{}); err != nil {
		t.Errorf("nil WriteJSONL: %v", err)
	}
}

// sliceRing is the committed ring as it was before it was chunked: one
// slice grown by append, then overwritten in place from head. It is the
// reference the chunked ring must match event for event.
type sliceRing struct {
	cap, head, seq, dropped int
	buf                     []Event
	pending                 map[string][]Event
}

func (r *sliceRing) add(ev Event) {
	ev.Seq = r.seq
	r.seq++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.head] = ev
	r.head = (r.head + 1) % r.cap
	r.dropped++
}

func (r *sliceRing) record(key string, ev Event) {
	ev.Key = key
	if len(r.pending[key]) < pendingCapPerKey {
		r.pending[key] = append(r.pending[key], ev)
	} else {
		r.dropped++
	}
}

func (r *sliceRing) commit(key string, virtualT float64) {
	for _, ev := range r.pending[key] {
		ev.T = virtualT
		r.add(ev)
	}
	delete(r.pending, key)
}

func (r *sliceRing) events() []Event {
	return append(append([]Event{}, r.buf[r.head:]...), r.buf[:r.head]...)
}

// TestTracerChunkedRingMatchesSliceRing feeds rings whose capacities are
// not multiples of the chunk (and one that is, and one inside a single
// chunk) three times their capacity in events, through Emit and through
// Record/Commit, some groups past the pending cap: at every step Events,
// Len and Dropped equal the reference ring's.
func TestTracerChunkedRingMatchesSliceRing(t *testing.T) {
	for _, capacity := range []int{3*traceChunk + 37, 2 * traceChunk, traceChunk - 1, 5} {
		tr := NewTracer(capacity)
		ref := &sliceRing{cap: capacity, pending: map[string][]Event{}}
		rng := rand.New(rand.NewSource(int64(capacity)))
		check := func(step int) {
			t.Helper()
			if got, want := tr.Events(), ref.events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("capacity %d, step %d: %d events, reference %d (first seqs %v / %v)",
					capacity, step, len(got), len(want), firstSeq(got), firstSeq(want))
			}
			if tr.Len() != len(ref.buf) || tr.Dropped() != ref.dropped {
				t.Fatalf("capacity %d, step %d: Len %d Dropped %d, reference %d and %d",
					capacity, step, tr.Len(), tr.Dropped(), len(ref.buf), ref.dropped)
			}
		}
		for step := 0; ref.seq < 3*capacity; step++ {
			ev := Event{Kind: EvObserve, Trial: step, Cost: rng.Float64()}
			switch rng.Intn(3) {
			case 0:
				tr.Emit(ev)
				ref.add(ev)
			default:
				key := fmt.Sprintf("k%d", rng.Intn(4))
				n := 1 + rng.Intn(40)
				if rng.Intn(50) == 0 {
					n = pendingCapPerKey + 3
				}
				for i := 0; i < n; i++ {
					ev.Attempt = i
					tr.Record(key, ev)
					ref.record(key, ev)
				}
				vt := float64(step)
				tr.Commit(key, vt)
				ref.commit(key, vt)
			}
			if step%7 == 0 || ref.seq >= 3*capacity {
				check(step)
			}
		}
	}
}

func firstSeq(evs []Event) []int {
	var out []int
	for i := 0; i < len(evs) && i < 3; i++ {
		out = append(out, evs[i].Seq)
	}
	return out
}
