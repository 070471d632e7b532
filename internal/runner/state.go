package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
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
// Wrapping runners (the chaos layer) snapshot their own counters plus
// their inner runner's state, so one SnapshotState call at the outermost
// layer captures the whole stack.
type StateSnapshotter interface {
	// SnapshotState serializes the runner's mutable state.
	SnapshotState() ([]byte, error)
	// RestoreState replaces the runner's mutable state with a snapshot
	// taken by the same runner type. It fails closed on malformed bytes.
	RestoreState(data []byte) error
}

// State is the mutable measurement state every caching runner keeps — the
// elapsed virtual clock, the per-key noise-rep indices, and the evaluated-
// config cache — together with its one serialization. InProcess,
// Subprocess, Multi and the dispatch pool embed it through their Harness,
// which makes their snapshots byte-identical by construction: a checkpoint
// taken under a remote pool resumes in-process and vice versa. Static
// configuration (simulator, profile, timeouts, retry policy) is rebuilt
// from the session options on resume and is deliberately absent;
// checkpoint.Meta guards against resuming under different options. The
// zero value is ready to use and safe for concurrent use.
//
// The serialization is a stream of JSON objects ("segments"). Each
// SnapshotState appends one segment — the clock plus every key changed
// since the previous snapshot, in sorted order — and returns the whole
// stream without re-encoding what it already holds; RestoreState folds the
// segments in order. A state written before streams existed (one object
// holding everything) is a one-segment stream. Change tracking starts with
// the first snapshot or restore, so a runner that is never checkpointed
// pays nothing for it.
type State struct {
	mu      sync.Mutex
	elapsed VirtualClock
	reps    map[string]int // next noise-rep index per state key
	cache   map[string]Measurement
	// stream is every segment snapshotted or restored so far; dirty holds
	// the keys changed since the last segment, nil until tracking starts.
	stream []byte
	dirty  map[string]struct{}
}

// stateSegment is one segment of the stream: absolute values for the keys
// it names, and the clock at the time it was taken.
type stateSegment struct {
	Elapsed float64                `json:"elapsed"`
	Reps    map[string]int         `json:"reps,omitempty"`
	Cache   map[string]Measurement `json:"cache,omitempty"`
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

// Settle charges m's cost to the clock and, when cache is set, memoizes m
// under sk. A transient failure is no verdict — caching it would condemn
// a configuration that merely hit a flaky launch — so only definitive
// outcomes are memoized.
func (s *State) Settle(sk string, m Measurement, cache bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.elapsed.Charge(m.CostSeconds)
	if !cache || m.Transient {
		return
	}
	if s.cache == nil {
		s.cache = make(map[string]Measurement)
	}
	s.cache[sk] = m
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
// never modified afterwards.
func (s *State) SnapshotState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg := stateSegment{Elapsed: s.elapsed.Seconds(), Reps: s.reps, Cache: s.cache}
	if s.dirty != nil {
		seg.Reps = make(map[string]int, len(s.dirty))
		seg.Cache = make(map[string]Measurement, len(s.dirty))
		for k := range s.dirty {
			if n, ok := s.reps[k]; ok {
				seg.Reps[k] = n
			}
			if m, ok := s.cache[k]; ok {
				seg.Cache[k] = m
			}
		}
	}
	b, err := json.Marshal(seg)
	if err != nil {
		return nil, fmt.Errorf("runner: snapshot state: %w", err)
	}
	s.stream = append(s.stream, b...)
	s.resetDirty()
	return s.stream[:len(s.stream):len(s.stream)], nil
}

// RestoreState implements StateSnapshotter: it folds the stream's segments
// in order and keeps the stream, so the next snapshot extends it. Nothing
// changes unless the whole stream decodes.
func (s *State) RestoreState(data []byte) error {
	var elapsed float64
	reps := make(map[string]int)
	cache := make(map[string]Measurement)
	dec := json.NewDecoder(bytes.NewReader(data))
	segments := 0
	for {
		// Decoding into the live maps folds the segment: the keys it names
		// are replaced, the rest kept; a missing clock keeps the last one.
		seg := stateSegment{Elapsed: elapsed, Reps: reps, Cache: cache}
		if err := dec.Decode(&seg); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("runner: restore state: %w", err)
		}
		elapsed = seg.Elapsed
		segments++
	}
	if segments == 0 {
		return errors.New("runner: restore state: empty state")
	}
	if err := CheckClock(elapsed); err != nil {
		return fmt.Errorf("runner: restore state: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.elapsed.Set(elapsed)
	s.reps, s.cache = reps, cache
	s.stream = append([]byte(nil), data...)
	s.resetDirty()
	return nil
}

// resetDirty starts (or restarts) change tracking. Caller holds s.mu.
func (s *State) resetDirty() {
	if s.dirty == nil {
		s.dirty = make(map[string]struct{})
	}
	clear(s.dirty)
}
