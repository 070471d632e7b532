package faultinject

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/runner"
)

// chaosSegment is one segment of the chaos layer's state stream, which
// works like runner.State's: each snapshot appends the clock and the
// attempt counters changed since the previous snapshot, and restoring
// folds the segments in order. Inner carries the wrapped runner's stream
// suffix taken by the same snapshot, so one SnapshotState at the chaos
// layer captures the full runner stack; a state written before streams
// existed (one object, the whole inner state nested) is a one-segment
// stream. The fault schedule itself needs no state: faults are a pure hash
// of (seed, key, attempt), so restoring the per-key attempt counters
// restores the schedule position exactly, and with it each key's streak
// (see ChaosRunner.streakBefore); the settled keys are the inner runner's
// cache. Older streams also carry "streaks", "settled" and "stats"
// fields, which restoring ignores.
type chaosSegment struct {
	Elapsed  float64         `json:"elapsed"`
	Attempts map[string]int  `json:"attempts,omitempty"`
	Inner    json.RawMessage `json:"inner,omitempty"`
}

// innerSnapshotter returns the wrapped runner's state interface. A chaos
// checkpoint without the wrapped runner's caches would replay the fault
// schedule against a runner that re-measures everything, diverging
// immediately, so a plain inner runner is an error.
func (c *ChaosRunner) innerSnapshotter() (runner.StateSnapshotter, error) {
	snap, ok := c.inner.(runner.StateSnapshotter)
	if !ok {
		return nil, fmt.Errorf("faultinject: inner runner %T cannot snapshot state", c.inner)
	}
	return snap, nil
}

// SnapshotState implements runner.StateSnapshotter. The chaos layer owns
// its inner runner's snapshots: each one appends exactly one inner
// segment, which this segment carries verbatim instead of re-encoding it.
func (c *ChaosRunner) SnapshotState() ([]byte, error) {
	snap, err := c.innerSnapshotter()
	if err != nil {
		return nil, err
	}
	inner, err := snap.SnapshotState()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(inner) < c.innerLen {
		return nil, errors.New("faultinject: inner runner state is not append-only")
	}
	seg := chaosSegment{Elapsed: c.elapsed.Seconds(), Attempts: c.attempts}
	if c.dirty != nil {
		seg.Attempts = make(map[string]int, len(c.dirty))
		for k := range c.dirty {
			seg.Attempts[k] = c.attempts[k]
		}
	}
	b, err := json.Marshal(seg)
	if err != nil {
		return nil, fmt.Errorf("faultinject: snapshot state: %w", err)
	}
	if suffix := inner[c.innerLen:]; len(suffix) > 0 {
		// Splice the suffix in as the last field: the object always ends
		// in '}', and the suffix is the inner runner's own valid JSON.
		b = append(b[:len(b)-1], `,"inner":`...)
		b = append(append(b, suffix...), '}')
	}
	c.stream = append(c.stream, b...)
	c.innerLen = len(inner)
	c.resetDirty()
	return c.stream[:len(c.stream):len(c.stream)], nil
}

// RestoreState implements runner.StateSnapshotter: it folds the segments,
// restores the inner runner from the concatenation of their inner parts,
// and keeps the stream so the next snapshot extends it. A stream either
// restores both layers or leaves both unchanged; one whose clock is out
// of range or that leaves a negative attempt count is refused.
func (c *ChaosRunner) RestoreState(data []byte) error {
	snap, err := c.innerSnapshotter()
	if err != nil {
		return err
	}
	var inner []byte
	var elapsed float64
	attempts := make(map[string]int)
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		seg := chaosSegment{Elapsed: elapsed, Attempts: attempts}
		if err := dec.Decode(&seg); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("faultinject: restore state: %w", err)
		}
		elapsed = seg.Elapsed
		inner = append(inner, seg.Inner...)
	}
	if err := runner.CheckClock(elapsed); err != nil {
		return fmt.Errorf("faultinject: restore state: %w", err)
	}
	for k, n := range attempts {
		if n < 0 {
			return fmt.Errorf("faultinject: restore state: key %q has attempt count %d", k, n)
		}
	}
	if err := snap.RestoreState(inner); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.elapsed.Set(elapsed)
	c.attempts = attempts
	c.stream = append([]byte(nil), data...)
	c.innerLen = len(inner)
	c.resetDirty()
	return nil
}

// touch records sk as changed since the last segment. Caller holds c.mu.
func (c *ChaosRunner) touch(sk string) {
	if c.dirty != nil {
		c.dirty[sk] = struct{}{}
	}
}

// resetDirty starts (or restarts) change tracking. Caller holds c.mu.
func (c *ChaosRunner) resetDirty() {
	if c.dirty == nil {
		c.dirty = make(map[string]struct{})
	}
	clear(c.dirty)
}
