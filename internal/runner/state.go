package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bincode"
	"repro/internal/jvmsim"
)

// StateSnapshotter is the contract between runners and the checkpoint
// layer: a runner that can serialize its mutable measurement state —
// elapsed virtual clock, per-key noise-rep indices, and the evaluated-
// config cache — can take part in crash-safe sessions. Restoring a
// snapshot must leave the runner bit-identical to the one that took it, so
// a resumed session's fresh measurements (cache hits, rep indices, budget
// accounting) replay exactly as the uninterrupted run's would have.
//
// Snapshots are append-only streams: every snapshot a runner takes extends
// the bytes of its previous one (or of the state it was restored from), so
// a checkpoint writer can persist just the new suffix.
//
// The chaos handle (internal/faultinject) snapshots the harness it
// installed its fault source on, so a chaos session has one stream too.
type StateSnapshotter interface {
	// SnapshotState serializes the runner's mutable state.
	SnapshotState() ([]byte, error)
	// RestoreState replaces the runner's mutable state with a snapshot
	// taken by the same runner type. It fails closed on malformed bytes.
	RestoreState(data []byte) error
}

// State is the mutable measurement state every caching runner keeps — the
// elapsed virtual clock, the per-key noise-rep indices, the per-key launch
// counters a fault source numbers attempts by, and the evaluated-config
// cache — together with its one serialization. InProcess,
// Subprocess, Multi and the dispatch pool embed it through their Harness,
// which makes their snapshots byte-identical by construction: a checkpoint
// taken under a remote pool resumes in-process and vice versa. Static
// configuration (simulator, profile, timeouts, retry policy) is rebuilt
// from the session options on resume and is deliberately absent;
// checkpoint.Meta guards against resuming under different options. The
// zero value is ready to use and safe for concurrent use.
//
// The serialization is a stream of segments. Each SnapshotState appends
// one segment — the clock plus every key changed since the previous
// snapshot, in sorted order — and returns the whole stream without
// re-encoding what it already holds; RestoreState folds the segments in
// order. Change tracking starts with the first snapshot or restore, so a
// runner that is never checkpointed pays nothing for it.
//
// A segment is binary (internal/bincode), so a float is its exact bits:
//
//	segment: 0x1e, f64 elapsed, count keys, then per key in sorted order:
//	         str key, byte mask, [varint reps], [measurement], [varint launches]
//
// where the mask's bits 1, 2 and 4 say which of the three follow, and a
// measurement is EncodeMeasurement's with the key as its context key.
// Checkpoint formats 1 to 4 wrote JSON segments instead, objects of the
// form {"elapsed","reps","cache","attempts"}; a state written before
// streams existed (one object holding everything) is a one-segment
// stream. A stream is its JSON segments, then its binary ones: a restored
// legacy stream keeps its bytes, and the next snapshot appends a binary
// segment after them. 0x1e cannot start a JSON value or whitespace, and a
// JSON text never holds it, so the first 0x1e ends the JSON part.
//
// Checkpoint formats 1 to 3 wrote a chaos session's state as the chaos
// layer's own stream, whose segments nest the inner runner's segment:
// {"elapsed","attempts","inner":{"elapsed","reps","cache"}}, with
// "streaks", "settled" and "stats" in formats 1 and 2. RestoreState folds
// such a segment like any other — the outer clock, the launch counters,
// and the nested reps and cache — and ignores the nested clock and the
// older fields, which counted what the stream already holds.
type State struct {
	mu       sync.Mutex
	elapsed  VirtualClock
	reps     map[string]int // next noise-rep index per state key
	launches map[string]int // launches so far per state key, under a fault source
	cache    map[string]Measurement
	// stream is every segment snapshotted or restored so far; dirty holds
	// the keys changed since the last segment, nil until tracking starts.
	stream []byte
	dirty  map[string]struct{}
}

// segmentTag opens every binary segment.
const segmentTag = 0x1e

// Mask bits of a key in a binary segment: which of its values follow.
const (
	hasReps byte = 1 << iota
	hasMeasurement
	hasLaunches
)

// StateSegment is one decoded segment of a state stream: the clock when
// it was taken, and the absolute values of the keys it names.
type StateSegment struct {
	Elapsed  float64
	Reps     map[string]int
	Cache    map[string]Measurement
	Launches map[string]int
}

// jsonSegment is a segment as checkpoint formats 1 to 4 wrote it.
type jsonSegment struct {
	Elapsed  float64                `json:"elapsed"`
	Reps     map[string]int         `json:"reps,omitempty"`
	Cache    map[string]Measurement `json:"cache,omitempty"`
	Launches map[string]int         `json:"attempts,omitempty"`
	// Inner is the nested segment of a legacy chaos segment; folding
	// takes its reps and cache.
	Inner *jsonSegment `json:"inner,omitempty"`
}

// Flag bits of an encoded measurement.
const (
	mFailed byte = 1 << iota
	mFromCache
	mTransient
	mContextKey // the key is the context key, so it is not written
)

// EncodeMeasurement appends m in the binary house style (internal/bincode):
//
//	byte flags, [str key], floats walls, f64 mean, floats pauses,
//	f64 mean_pause, str failure, str failure_message, f64 cost_seconds,
//	f64 hedge_cost_seconds, varint attempts, varint flakes
//
// The flag bits are 1 Failed, 2 FromCache, 4 Transient and 8 "the key is
// ctx": a record that already holds the key the measurement belongs to (a
// state key, a trial's key) passes it as ctx, and an equal key is not
// written again. Strings are written exactly, invalid UTF-8 included.
func EncodeMeasurement(e *bincode.Encoder, m *Measurement, ctx string) {
	flags := bit(m.Failed, mFailed) | bit(m.FromCache, mFromCache) | bit(m.Transient, mTransient) |
		bit(m.Key == ctx, mContextKey)
	e.Byte(flags)
	if flags&mContextKey == 0 {
		e.Str(m.Key)
	}
	e.Floats(m.Walls)
	e.Float(m.Mean)
	e.Floats(m.Pauses)
	e.Float(m.MeanPause)
	e.Str(string(m.Failure))
	e.Str(m.FailureMessage)
	e.Float(m.CostSeconds)
	e.Float(m.HedgeCostSeconds)
	e.Varint(int64(m.Attempts))
	e.Varint(int64(m.Flakes))
}

// bit is b when set is true, else 0.
func bit(set bool, b byte) byte {
	if set {
		return b
	}
	return 0
}

// DecodeMeasurement reads a measurement EncodeMeasurement wrote under the
// same ctx. Unknown flag bits fail d.
func DecodeMeasurement(d *bincode.Decoder, ctx string) Measurement {
	flags := d.Byte()
	if flags&^(mFailed|mFromCache|mTransient|mContextKey) != 0 {
		d.Fail()
		return Measurement{}
	}
	m := Measurement{Key: ctx, Failed: flags&mFailed != 0, FromCache: flags&mFromCache != 0,
		Transient: flags&mTransient != 0}
	if flags&mContextKey == 0 {
		m.Key = d.Str()
	}
	m.Walls = d.Floats()
	m.Mean = d.Float()
	m.Pauses = d.Floats()
	m.MeanPause = d.Float()
	m.Failure = jvmsim.FailureKind(d.Str())
	m.FailureMessage = d.Str()
	m.CostSeconds = d.Float()
	m.HedgeCostSeconds = d.Float()
	m.Attempts = d.Int()
	m.Flakes = d.Int()
	return m
}

// maxElapsedSeconds bounds a restored clock to where VirtualClock's
// microsecond grid round-trips exactly (see VirtualClock).
const maxElapsedSeconds = float64(1<<51) / 1e6

// CheckClock refuses a persisted clock reading VirtualClock.Set cannot
// restore exactly: negative, NaN, or past maxElapsedSeconds. Every state
// stream that carries a clock runs it before restoring anything.
func CheckClock(seconds float64) error {
	if !(seconds >= 0 && seconds <= maxElapsedSeconds) {
		return fmt.Errorf("elapsed %g out of range", seconds)
	}
	return nil
}

// Elapsed returns total virtual seconds consumed.
func (s *State) Elapsed() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elapsed.Seconds()
}

// Cached returns the memoized measurement of state key sk when it answers
// a reps-repetition request, as a zero-cost cache replay. A failure always
// answers — one failure condemns the configuration, so a re-proposal
// replays the verdict instead of re-charging the budget for a known crash
// — and a success answers once it holds at least reps walls.
func (s *State) Cached(sk string, reps int) (Measurement, bool) {
	s.mu.Lock()
	m, ok := s.cache[sk]
	s.mu.Unlock()
	if !ok || (!m.Failed && len(m.Walls) < reps) {
		return Measurement{}, false
	}
	m.FromCache = true
	m.CostSeconds = 0
	return m, true
}

// Reserve allocates reps fresh noise-rep indices for sk and returns the
// first, so every attempt — retries included — is a genuinely new
// measurement, never a replay.
func (s *State) Reserve(sk string, reps int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reps == nil {
		s.reps = make(map[string]int)
	}
	base := s.reps[sk]
	s.reps[sk] = base + reps
	s.touch(sk)
	return base
}

// nextLaunch returns sk's launch counter and advances it.
func (s *State) nextLaunch(sk string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.launches == nil {
		s.launches = make(map[string]int)
	}
	n := s.launches[sk]
	s.launches[sk] = n + 1
	s.touch(sk)
	return n
}

// Settle charges cost to the clock and, when memo is set, memoizes *memo
// under sk. The caller passes no memo for a transient failure: it is no
// verdict, and caching it would condemn a configuration that merely hit
// a flaky launch.
func (s *State) Settle(sk string, cost float64, memo *Measurement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.elapsed.Charge(cost)
	if memo == nil {
		return
	}
	if s.cache == nil {
		s.cache = make(map[string]Measurement)
	}
	s.cache[sk] = *memo
	s.touch(sk)
}

// touch records sk as changed since the last segment. Caller holds s.mu.
func (s *State) touch(sk string) {
	if s.dirty != nil {
		s.dirty[sk] = struct{}{}
	}
}

// SnapshotState implements StateSnapshotter: it appends one segment and
// returns the whole stream. The returned slice is capped, so appending to
// it never writes into the runner's buffer, and the bytes it covers are
// never modified afterwards. A non-finite float in the state fails it, as
// it failed the JSON encoding older builds wrote.
func (s *State) SnapshotState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dirty == nil {
		// The first segment holds every key.
		s.resetDirty()
		for _, m := range []map[string]int{s.reps, s.launches} {
			for k := range m {
				s.dirty[k] = struct{}{}
			}
		}
		for k := range s.cache {
			s.dirty[k] = struct{}{}
		}
	}
	keys := make([]string, 0, len(s.dirty))
	for k := range s.dirty {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e := bincode.Encoder{B: append(s.stream, segmentTag)}
	e.Float(s.elapsed.Seconds())
	e.Count(len(keys), false)
	for _, k := range keys {
		n, okR := s.reps[k]
		m, okM := s.cache[k]
		l, okL := s.launches[k]
		e.Str(k)
		e.Byte(bit(okR, hasReps) | bit(okM, hasMeasurement) | bit(okL, hasLaunches))
		if okR {
			e.Varint(int64(n))
		}
		if okM {
			EncodeMeasurement(&e, &m, k)
		}
		if okL {
			e.Varint(int64(l))
		}
	}
	if e.Err != nil {
		return nil, fmt.Errorf("runner: snapshot state: %w", e.Err)
	}
	s.stream = e.B
	s.resetDirty()
	return s.stream[:len(s.stream):len(s.stream)], nil
}

// RestoreState implements StateSnapshotter: it folds the stream's segments
// in order and keeps the stream, so the next snapshot extends it. Nothing
// changes unless the whole stream decodes, its clock is in range and no
// count is negative.
func (s *State) RestoreState(data []byte) error {
	// The decoded keys and measurements share the copy's bytes, which
	// later snapshots only append to.
	stream := append([]byte(nil), data...)
	live := StateSegment{Reps: make(map[string]int), Launches: make(map[string]int),
		Cache: make(map[string]Measurement)}
	segments, err := foldStream(stream, func(float64) *StateSegment { return &live })
	if err == nil {
		err = live.check(segments)
	}
	if err != nil {
		return fmt.Errorf("runner: restore state: %w", err)
	}
	if len(live.Launches) == 0 {
		live.Launches = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.elapsed.Set(live.Elapsed)
	s.reps, s.launches, s.cache = live.Reps, live.Launches, live.Cache
	s.stream = stream
	s.resetDirty()
	return nil
}

// check refuses a fold of segments segments that RestoreState must not
// install: an empty stream, a clock out of range, a negative count.
func (seg *StateSegment) check(segments int) error {
	if segments == 0 {
		return errors.New("empty state")
	}
	if err := CheckClock(seg.Elapsed); err != nil {
		return err
	}
	for _, counts := range []map[string]int{seg.Reps, seg.Launches} {
		for k, n := range counts {
			if n < 0 {
				return fmt.Errorf("key %q has count %d", k, n)
			}
		}
	}
	return nil
}

// DecodeState returns the segments of a state stream, its JSON ones
// included, each holding only what it names: what a checkpoint's runner
// state says, for tools and tests that look inside one.
func DecodeState(stream []byte) ([]StateSegment, error) {
	var segs []StateSegment
	_, err := foldStream(bytes.Clone(stream), func(elapsed float64) *StateSegment {
		segs = append(segs, StateSegment{Elapsed: elapsed, Reps: make(map[string]int),
			Launches: make(map[string]int), Cache: make(map[string]Measurement)})
		return &segs[len(segs)-1]
	})
	if err != nil {
		return nil, fmt.Errorf("runner: decode state: %w", err)
	}
	return segs, nil
}

// foldStream decodes stream's segments in order, each into the segment
// next returns for it — handed the clock so far, which a JSON segment
// without one keeps — and returns how many it decoded. Decoded strings
// share stream's bytes, so the caller must never write to them.
func foldStream(stream []byte, next func(elapsed float64) *StateSegment) (int, error) {
	split := bytes.IndexByte(stream, segmentTag)
	if split < 0 {
		split = len(stream)
	}
	elapsed, segments := 0.0, 0
	dec := json.NewDecoder(bytes.NewReader(stream[:split]))
	for dec.More() {
		// Decoding into the segment's maps folds it: the keys it names
		// are set, the rest kept; a missing clock keeps the last one.
		seg := next(elapsed)
		js := jsonSegment{Elapsed: elapsed, Reps: seg.Reps, Cache: seg.Cache, Launches: seg.Launches,
			Inner: &jsonSegment{Reps: seg.Reps, Cache: seg.Cache}}
		if err := dec.Decode(&js); err != nil {
			return 0, err
		}
		elapsed = js.Elapsed
		seg.Elapsed = elapsed
		segments++
	}
	// More stops at a stray closing bracket too.
	if len(bytes.Trim(stream[dec.InputOffset():split], " \t\r\n")) > 0 {
		return 0, errors.New("trailing data after the JSON segments")
	}
	d := bincode.NewDecoder(stream[split:], bincode.StringView(stream)[split:])
	for !d.Done() {
		if d.Byte() != segmentTag {
			return 0, errors.New("a segment does not open with its tag")
		}
		seg := next(elapsed)
		elapsed = d.Float()
		seg.Elapsed = elapsed
		n, _ := d.Count(2)
		for range n {
			k := d.Str()
			mask := d.Byte()
			if mask&^(hasReps|hasMeasurement|hasLaunches) != 0 {
				return 0, fmt.Errorf("unknown mask bits %#x", mask)
			}
			if mask&hasReps != 0 {
				seg.Reps[k] = d.Int()
			}
			if mask&hasMeasurement != 0 {
				seg.Cache[k] = DecodeMeasurement(&d, k)
			}
			if mask&hasLaunches != 0 {
				seg.Launches[k] = d.Int()
			}
		}
		if !d.OK() {
			return 0, errors.New("malformed segment")
		}
		segments++
	}
	return segments, nil
}

// resetDirty starts (or restarts) change tracking. Caller holds s.mu.
func (s *State) resetDirty() {
	if s.dirty == nil {
		s.dirty = make(map[string]struct{})
	}
	clear(s.dirty)
}
