package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// Event is one typed entry in a session trace.
//
// Events never carry wall-clock timestamps or non-finite floats: T is the
// virtual clock, and every field is a pure function of the session's seed
// and inputs, which is what makes the JSONL export byte-deterministic.
type Event struct {
	// Seq is the position in the committed stream, assigned at commit time.
	Seq int `json:"seq"`
	// T is the virtual time (seconds) the event was committed at; -1 for
	// events flushed without ever being committed (standalone runner use).
	T float64 `json:"t"`
	// Kind is the event type; see the Ev* constants.
	Kind string `json:"kind"`
	// Key is the configuration key (or another stable subject id) the event
	// concerns.
	Key string `json:"key,omitempty"`
	// Attempt is the launch-attempt index for attempt/retry/fault events.
	Attempt int `json:"attempt,omitempty"`
	// Worker is the virtual evaluation slot for proposal/observe events.
	Worker int `json:"worker,omitempty"`
	// Trial is the session trial number for observe events.
	Trial int `json:"trial,omitempty"`
	// Cost is the virtual seconds the subject consumed, when known.
	Cost float64 `json:"cost,omitempty"`
	// Score is the objective score observed, when finite.
	Score float64 `json:"score,omitempty"`
	// Detail carries a kind-specific annotation (failure kind, fault name,
	// round summary).
	Detail string `json:"detail,omitempty"`
}

// The trace event kinds the engine emits.
const (
	// EvBaseline closes the default-configuration measurement.
	EvBaseline = "baseline"
	// EvProposal marks a searcher proposal being dispatched to a slot.
	EvProposal = "proposal"
	// EvAttempt is one launch attempt of a measurement (Detail: "ok" or the
	// failure kind).
	EvAttempt = "attempt"
	// EvRetry marks a transient failure being retried (Attempt is the new
	// attempt's index).
	EvRetry = "retry"
	// EvFault is a chaos-layer injection (Detail: the fault kind).
	EvFault = "fault"
	// EvCacheHit is a measurement replayed from the runner cache.
	EvCacheHit = "cache-hit"
	// EvCondemned marks a deterministic failure being cached: the
	// configuration is condemned and will never be re-measured.
	EvCondemned = "condemned"
	// EvObserve is the session delivering a measurement to the searcher.
	EvObserve = "observe"
	// EvBarrier closes one evaluation round of the batched executor.
	EvBarrier = "barrier"
	// EvHedge marks the straggler watchdog resolving a hedged trial
	// (Detail: "hedge-won" or "primary-won"; Cost: the effective charge).
	EvHedge = "hedge"
	// EvQuarantine is a failure-quarantine breaker transition or probe
	// (Detail: "open:", "close:", "reopen:", "probe:" or "skip:" plus the
	// subtree label).
	EvQuarantine = "quarantine"
	// EvPhase marks the workload shifting to a new phase at a round boundary
	// (Detail: "ph<N>|" plus the shift's canonical factors).
	EvPhase = "phase"
	// EvDrift marks the drift detector confirming a workload shift: the
	// session demotes its incumbent (Key) and opens a re-tuning epoch
	// (Detail: the new epoch and the detector statistics; Score: the
	// observation that confirmed the drift; Trial: the confirming trial).
	EvDrift = "drift"
)

// defaultTraceCap bounds the ring when NewTracer is given no capacity.
const defaultTraceCap = 1 << 14

// traceChunk is the number of events in one chunk of the ring's storage.
const traceChunk = 256

// pendingCapPerKey bounds any one key's uncommitted event group.
const pendingCapPerKey = 256

// Tracer records session events into a bounded ring buffer.
//
// Determinism protocol: events produced on the session goroutine (proposal,
// observe, barrier) are Emitted directly, in an order the executor already
// guarantees is deterministic. Events produced inside concurrent
// Runner.Measure calls (attempts, retries, faults, cache hits) are Recorded
// into a per-key pending group — within one Measure call they are
// sequential, and the executor measures a key at most once per round — and
// the session Commits the group when it delivers that key's observation, in
// virtual-completion order. The committed stream is therefore identical for
// a fixed seed at any worker count and under any goroutine schedule.
//
// The ring's storage is a list of fixed-size chunks of 256 events (the
// last one shorter when the capacity is not a multiple of that), each
// allocated when the ring first reaches it. Growing the ring never
// copies the events it holds, and a session that commits few events
// holds few chunks.
//
// A nil *Tracer is a valid no-op sink.
type Tracer struct {
	mu      sync.Mutex
	cap     int
	chunks  [][]Event // ring slot i is chunks[i/traceChunk][i%traceChunk]
	n       int       // committed events held
	head    int       // slot of the oldest event
	seq     int
	dropped int
	pending map[string][]Event
}

// NewTracer returns a tracer holding at most capacity committed events
// (oldest dropped first); capacity ≤ 0 means the default, 16384.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return &Tracer{cap: capacity, pending: make(map[string][]Event)}
}

// appendLocked commits one event to the ring. t.mu must be held.
func (t *Tracer) appendLocked(ev Event) {
	ev.Seq = t.seq
	t.seq++
	if t.n < t.cap {
		// Not yet full: the oldest event is in slot 0 and the next free
		// slot is n, whose chunk exists unless n starts a new one.
		if t.n%traceChunk == 0 {
			t.chunks = append(t.chunks, make([]Event, min(traceChunk, t.cap-t.n)))
		}
		t.chunks[t.n/traceChunk][t.n%traceChunk] = ev
		t.n++
		return
	}
	t.chunks[t.head/traceChunk][t.head%traceChunk] = ev
	t.head = (t.head + 1) % t.cap
	t.dropped++
}

// Emit commits ev immediately. Call only from a deterministically ordered
// context (the session goroutine); concurrent producers use Record/Commit.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.appendLocked(ev)
	t.mu.Unlock()
}

// Record appends ev to key's pending group without committing it. Safe for
// concurrent use; events from one goroutine keep their order.
func (t *Tracer) Record(key string, ev Event) {
	if t == nil {
		return
	}
	ev.Key = key
	t.mu.Lock()
	if len(t.pending[key]) < pendingCapPerKey {
		t.pending[key] = append(t.pending[key], ev)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Commit moves key's pending events into the committed stream, stamping
// each with the virtual time virtualT.
func (t *Tracer) Commit(key string, virtualT float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, ev := range t.pending[key] {
		ev.T = virtualT
		t.appendLocked(ev)
	}
	delete(t.pending, key)
	t.mu.Unlock()
}

// Flush commits every remaining pending group in sorted-key order, stamping
// events with T = -1 (no deterministic virtual time is known for them).
// WriteJSONL calls it automatically.
func (t *Tracer) Flush() {
	if t == nil {
		return
	}
	t.mu.Lock()
	keys := make([]string, 0, len(t.pending))
	for k := range t.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, ev := range t.pending[k] {
			ev.T = -1
			t.appendLocked(ev)
		}
		delete(t.pending, k)
	}
	t.mu.Unlock()
}

// Events returns the committed events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.n)
	// Copy chunk by chunk from the oldest slot, wrapping at the capacity.
	for i, left := t.head, t.n; left > 0; {
		seg := t.chunks[i/traceChunk][i%traceChunk:]
		seg = seg[:min(len(seg), left)]
		out = append(out, seg...)
		left -= len(seg)
		if i += len(seg); i == t.cap {
			i = 0
		}
	}
	return out
}

// Len returns the number of committed events currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped counts events lost to the ring bound or a pending-group cap.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteJSONL flushes pending groups and writes every committed event as one
// JSON object per line. For a fixed seed and virtual clock the output is
// byte-identical across runs at any worker count.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.Flush()
	for _, ev := range t.Events() {
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
