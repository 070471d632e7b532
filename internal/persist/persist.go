// Package persist serializes tuning outcomes to JSON so sessions can be
// archived, diffed, and re-applied: the winning flag set is stored as the
// exact java-style command line, which round-trips through
// flags.ParseArgs back into a Config.
package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/flags"
)

// FormatVersion identifies the on-disk schema; bump on breaking change.
const FormatVersion = 1

// SavedOutcome is the JSON form of a tuning session's result.
type SavedOutcome struct {
	Version        int     `json:"version"`
	Workload       string  `json:"workload"`
	Searcher       string  `json:"searcher"`
	DefaultWall    float64 `json:"default_wall_seconds"`
	BestWall       float64 `json:"best_wall_seconds"`
	ImprovementPct float64 `json:"improvement_pct"`
	Speedup        float64 `json:"speedup"`
	Trials         int     `json:"trials"`
	Failures       int     `json:"failures"`
	CacheHits      int     `json:"cache_hits"`
	Flakes         int     `json:"flakes,omitempty"`
	Attempts       int     `json:"attempts,omitempty"`
	// Degraded marks a session that ended early (budget or wall-clock
	// expiry, best-effort cancellation, stall); the outcome is the best
	// found by then. All omitempty: archives from complete runs — and all
	// older archives — serialize without them.
	Degraded       bool              `json:"degraded,omitempty"`
	DegradedReason string            `json:"degraded_reason,omitempty"`
	Quarantined    int               `json:"quarantined,omitempty"`
	Hedges         int               `json:"hedges,omitempty"`
	HedgeWins      int               `json:"hedge_wins,omitempty"`
	ElapsedSeconds float64           `json:"elapsed_seconds"`
	CommandLine    []string          `json:"command_line"`
	BestFlags      map[string]string `json:"best_flags"`
	Trace          []core.TracePoint `json:"trace,omitempty"`
	// Transfer carries warm-start provenance (hotspot.TransferInfo) when
	// the session ran against a knowledge base. Kept as raw JSON so this
	// package needs no dependency on the layer that defines it; omitted —
	// and byte-identical to older archives — for cold sessions.
	Transfer json.RawMessage `json:"transfer,omitempty"`
	// Epochs carries the per-epoch breakdown of a drift-enabled session
	// (hotspot.Epoch), raw JSON like Transfer. Omitted — and byte-identical
	// to older archives — when drift detection was off.
	Epochs json.RawMessage `json:"epochs,omitempty"`
}

// FromOutcome converts a session outcome for serialization.
func FromOutcome(o *core.Outcome) *SavedOutcome {
	s := &SavedOutcome{
		Version:        FormatVersion,
		Workload:       o.Workload,
		Searcher:       o.Searcher,
		DefaultWall:    o.DefaultWall,
		BestWall:       o.BestWall,
		ImprovementPct: o.ImprovementPct,
		Speedup:        o.Speedup,
		Trials:         o.Trials,
		Failures:       o.Failures,
		CacheHits:      o.CacheHits,
		Flakes:         o.Flakes,
		Attempts:       o.Attempts,
		Degraded:       o.Degraded,
		DegradedReason: o.DegradedReason,
		Quarantined:    o.Quarantined,
		Hedges:         o.Hedges,
		HedgeWins:      o.HedgeWins,
		ElapsedSeconds: o.Elapsed,
		Trace:          o.Trace,
		BestFlags:      map[string]string{},
	}
	if o.Best != nil {
		s.CommandLine = o.Best.ExplicitArgs()
		reg := o.Best.Registry()
		for _, name := range o.Best.Diff(flags.NewConfig(reg)) {
			f := reg.Lookup(name)
			v, _ := o.Best.Get(name)
			s.BestFlags[name] = f.ValueString(v)
		}
	}
	return s
}

// Config rebuilds the winning configuration over reg from the stored
// command line. It holds the winner's canonical form, so the rebuilt
// configuration has the winner's Key.
func (s *SavedOutcome) Config(reg *flags.Registry) (*flags.Config, error) {
	return flags.ParseArgs(reg, s.CommandLine)
}

// Write serializes to w as indented JSON.
func (s *SavedOutcome) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Read deserializes from r, rejecting unknown schema versions.
func Read(r io.Reader) (*SavedOutcome, error) {
	var s SavedOutcome
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if s.Version != FormatVersion {
		return nil, fmt.Errorf("persist: unsupported format version %d (want %d)",
			s.Version, FormatVersion)
	}
	return &s, nil
}

// SaveFile writes s to path atomically (checkpoint.ReplaceFile): the JSON
// goes to a temporary file in the same directory, is fsynced, and is
// renamed over path. A crash mid-save leaves either the old file or the
// new one, never a truncated hybrid.
func (s *SavedOutcome) SaveFile(path string) error {
	var b bytes.Buffer
	if err := s.Write(&b); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	f, err := checkpoint.ReplaceFile(path, b.Bytes())
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// LoadFile reads an outcome from path.
func LoadFile(path string) (*SavedOutcome, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	return Read(f)
}
