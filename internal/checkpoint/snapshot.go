package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/runner"
)

// Meta fingerprints the session that wrote a snapshot. Resume refuses a
// checkpoint whose fingerprint disagrees with the session being started:
// replay only reconstructs searcher and RNG state when every determinism
// input matches, and silently continuing with a different seed or searcher
// would produce a report that looks authoritative but corresponds to no
// real run.
type Meta struct {
	Workload      string  `json:"workload"`
	Searcher      string  `json:"searcher"`
	Objective     string  `json:"objective"`
	Runner        string  `json:"runner"` // concrete runner type, e.g. "*runner.InProcess"
	Seed          int64   `json:"seed"`
	BudgetSeconds float64 `json:"budget_seconds"`
	Reps          int     `json:"reps"`
	Workers       int     `json:"workers"`
	MaxTrials     int     `json:"max_trials"`
	// Robustness fingerprints the session's straggler-hedging and
	// failure-quarantine options — they steer which trials run, so a
	// checkpoint cannot resume under different settings. Empty when both
	// are off, which keeps snapshots from older builds loadable.
	Robustness string `json:"robustness,omitempty"`
	// Transfer fingerprints the warm-start priors injected into the
	// session's searcher — they steer the very first proposals, so a
	// checkpoint taken warm cannot resume cold or under different priors.
	// Empty for cold sessions, which keeps snapshots from older builds
	// loadable and transfer-off snapshots byte-identical.
	Transfer string `json:"transfer,omitempty"`
	// Drift fingerprints the session's workload-drift options: the phase
	// schedule the workload follows and the detector the session re-tunes
	// under. Both steer which trials run and when the searcher is rebuilt,
	// so a drifting checkpoint cannot resume stationary (or under a
	// different script or sensitivity). Empty when drift is off, which
	// keeps stationary snapshots byte-identical to older builds.
	Drift string `json:"drift,omitempty"`
}

// Check reports the first fingerprint mismatch between the checkpoint's
// metadata and the resuming session's, or nil if they agree.
func (m Meta) Check(want Meta) error {
	type field struct {
		name      string
		got, want any
	}
	for _, f := range []field{
		{"workload", m.Workload, want.Workload},
		{"searcher", m.Searcher, want.Searcher},
		{"objective", m.Objective, want.Objective},
		{"runner", m.Runner, want.Runner},
		{"seed", m.Seed, want.Seed},
		{"budget_seconds", m.BudgetSeconds, want.BudgetSeconds},
		{"reps", m.Reps, want.Reps},
		{"workers", m.Workers, want.Workers},
		{"max_trials", m.MaxTrials, want.MaxTrials},
		{"robustness", m.Robustness, want.Robustness},
		{"transfer", m.Transfer, want.Transfer},
		{"drift", m.Drift, want.Drift},
	} {
		if f.got != f.want {
			return fmt.Errorf("checkpoint: %s mismatch: checkpoint has %v, session wants %v", f.name, f.got, f.want)
		}
	}
	return nil
}

// TrialRecord is one delivered measurement: the dispatch sequence number the
// engine assigned the trial, the flag-set key it evaluated, and the
// measurement the searcher observed. Seq and Key double as divergence
// checks on replay — if the resumed engine proposes a different config for a
// recorded seq, the determinism inputs changed and resume aborts rather
// than splicing mismatched histories.
type TrialRecord struct {
	Seq int                `json:"seq"`
	Key string             `json:"key"`
	M   runner.Measurement `json:"m"`
}

// PriorRecord serializes one warm-start prior a re-tuning epoch was opened
// with: the configuration (by canonical key and canonical args) and its
// baseline-relative quality signal. Recorded verbatim so a resumed session
// rebuilds the epoch's searcher from exactly the priors the original run
// used — the transfer store the priors came from may have changed since.
type PriorRecord struct {
	Key  string   `json:"key"`
	Args []string `json:"args,omitempty"`
	Norm float64  `json:"norm"`
}

// EpochRecord is one re-tuning epoch a drifting session opened: at which
// trial, into which workload phase, and with which warm-start priors. The
// detector itself needs no state here — it is a pure fold over the trial
// log, so replay reconstructs it — but the priors are an external input
// (transfer-store lookups) and must be replayed verbatim.
type EpochRecord struct {
	Epoch  int           `json:"epoch"`
	Phase  int           `json:"phase"`
	Trial  int           `json:"trial"` // trials delivered when the epoch opened
	Priors []PriorRecord `json:"priors,omitempty"`
}

// Snapshot is a complete session checkpoint: everything needed to continue
// a killed run and converge to the byte-identical outcome of an
// uninterrupted one. Trials is the ordered log of delivered measurements;
// RunnerState is the runner's own opaque serialization (evaluated-config
// cache, noise-rep indices, chaos attempt counters, elapsed virtual
// clock) produced by runner.StateSnapshotter — an append-only stream,
// which is what lets a Keeper persist each round as a delta. Epochs lists
// the re-tuning epochs a drifting session has opened (empty for
// stationary sessions).
type Snapshot struct {
	Meta        Meta               `json:"meta"`
	Trial       int                `json:"trial"`   // trials completed when the snapshot was taken
	Elapsed     float64            `json:"elapsed"` // virtual seconds consumed
	BestKey     string             `json:"best_key"`
	BestScore   float64            `json:"best_score"`
	Baseline    runner.Measurement `json:"baseline"`
	Trials      []TrialRecord      `json:"trials"`
	Epochs      []EpochRecord      `json:"epochs,omitempty"`
	RunnerState json.RawMessage    `json:"runner_state,omitempty"` // inside the JSON in version 1 only

	// read is where Load found the snapshot, for a Keeper that continues
	// the file (see Keeper.Resume); zero for a snapshot built in memory.
	read fileRead
}

// fileRead locates a loaded snapshot in its file: the path Load read, the
// bytes it read, and the length of the valid prefix that decoded to the
// snapshot (shorter than the read when decode salvaged past a torn tail).
type fileRead struct {
	path        string
	size, valid int64
}

// Record kinds of a version 2, 3 or 4 file. Every payload is the kind byte,
// the uvarint length of a JSON part, the JSON part, and raw runner-state
// bytes — carried outside the JSON so no write re-encodes them.
const (
	// recordBase opens the file: the whole Snapshot (JSON without
	// runner_state) and the whole runner state.
	recordBase byte = 'B'
	// recordDelta follows it: a delta (JSON) and the runner-state suffix.
	recordDelta byte = 'D'
)

// delta is what a record adds to the snapshot before it: the trials and
// epochs delivered since, the new scalar fields, and (outside the JSON)
// the runner state's new suffix. From is the trial count the delta
// continues, so a delta cannot splice onto the wrong log.
type delta struct {
	From      int           `json:"from"`
	Trial     int           `json:"trial"`
	Elapsed   float64       `json:"elapsed"`
	BestKey   string        `json:"best_key"`
	BestScore float64       `json:"best_score"`
	Trials    []TrialRecord `json:"trials,omitempty"`
	Epochs    []EpochRecord `json:"epochs,omitempty"`
}

// recordHead is the kind byte and JSON length that open a v2 payload.
func recordHead(kind byte, jsonLen int) []byte {
	return binary.AppendUvarint([]byte{kind}, uint64(jsonLen))
}

// splitRecord splits a v2 payload of the wanted kind into its JSON part
// and its raw runner-state bytes.
func splitRecord(payload []byte, kind byte) (js, raw []byte, err error) {
	if len(payload) == 0 || payload[0] != kind {
		return nil, nil, fmt.Errorf("%w: record is not a %c record", ErrCorrupt, kind)
	}
	n, w := binary.Uvarint(payload[1:])
	if w <= 0 || n > uint64(len(payload)-1-w) {
		return nil, nil, fmt.Errorf("%w: bad JSON length in %c record", ErrCorrupt, kind)
	}
	js = payload[1+w : 1+w+int(n)]
	return js, payload[1+w+int(n):], nil
}

// decodeJSON is the strict JSON decoder every record goes through:
// unknown fields and trailing data are corruption, not extensions.
func decodeJSON(js []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(js))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// encodeBase is the payload of s's base record, as parts: the record
// head, the snapshot's JSON without the runner state, and the runner state.
func (s *Snapshot) encodeBase() ([][]byte, error) {
	head := *s
	head.RunnerState = nil
	js, err := json.Marshal(&head)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode snapshot: %w", err)
	}
	return [][]byte{recordHead(recordBase, len(js)), js, s.RunnerState}, nil
}

// encodeDelta is the payload of the delta record prev → s adds, as parts;
// the caller has checked that s extends prev (see extends).
func encodeDelta(prev, s *Snapshot) ([][]byte, error) {
	js, err := json.Marshal(&delta{
		From:      len(prev.Trials),
		Trial:     s.Trial,
		Elapsed:   s.Elapsed,
		BestKey:   s.BestKey,
		BestScore: s.BestScore,
		Trials:    s.Trials[len(prev.Trials):],
		Epochs:    s.Epochs[len(prev.Epochs):],
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode delta: %w", err)
	}
	return [][]byte{recordHead(recordDelta, len(js)), js, s.RunnerState[len(prev.RunnerState):]}, nil
}

// extends reports whether s continues prev, so that a delta can carry the
// difference: the same session, logs that only grew, and a runner state
// that starts with the bytes prev holds.
func (s *Snapshot) extends(prev *Snapshot) bool {
	return s.Meta == prev.Meta &&
		len(s.Trials) >= len(prev.Trials) &&
		len(s.Epochs) >= len(prev.Epochs) &&
		bytes.HasPrefix(s.RunnerState, prev.RunnerState)
}

// decode reads a checkpoint file written by a Keeper, version 1 to 4. It
// fails closed on a bad header, a future version, a missing, torn or
// undecodable base (or version 1 snapshot) record, trailing data after a
// version 1 record, and any CRC-valid delta that does not decode or
// continue the log. A torn or CRC-corrupt tail — a delta whose write a
// crash cut short — is salvaged: the snapshot of the last complete record
// stands.
func decode(data []byte) (*Snapshot, error) {
	v, err := parseHeader(data, snapshotKind)
	if err != nil {
		return nil, err
	}
	payload, rest, err := nextRecord(data[headerSize:])
	if err == io.EOF {
		return nil, fmt.Errorf("%w: missing snapshot record", ErrCorrupt)
	}
	if err != nil {
		return nil, err
	}
	s := new(Snapshot)
	if v == 1 {
		if len(rest) > 0 {
			return nil, fmt.Errorf("%w: trailing data after snapshot record", ErrCorrupt)
		}
		if err := decodeJSON(payload, s); err != nil {
			return nil, fmt.Errorf("%w: snapshot payload: %v", ErrCorrupt, err)
		}
		return s, nil
	}
	js, raw, err := splitRecord(payload, recordBase)
	if err != nil {
		return nil, err
	}
	if err := decodeJSON(js, s); err != nil {
		return nil, fmt.Errorf("%w: base record: %v", ErrCorrupt, err)
	}
	if s.RunnerState != nil {
		return nil, fmt.Errorf("%w: runner state inside the base record's JSON", ErrCorrupt)
	}
	if len(raw) > 0 {
		// Capped, so the first delta's append copies instead of writing
		// over the records that follow in data.
		s.RunnerState = raw[:len(raw):len(raw)]
	}
	for {
		payload, next, err := nextRecord(rest)
		if err != nil {
			// io.EOF, or a tail a crash tore: either way the snapshot of
			// the last complete record is the checkpoint.
			s.read = fileRead{size: int64(len(data)), valid: int64(len(data) - len(rest))}
			return s, nil
		}
		if err := s.applyDelta(payload); err != nil {
			return nil, err
		}
		rest = next
	}
}

// applyDelta folds one delta record into s.
func (s *Snapshot) applyDelta(payload []byte) error {
	js, raw, err := splitRecord(payload, recordDelta)
	if err != nil {
		return err
	}
	var d delta
	if err := decodeJSON(js, &d); err != nil {
		return fmt.Errorf("%w: delta record: %v", ErrCorrupt, err)
	}
	if d.From != len(s.Trials) {
		return fmt.Errorf("%w: delta continues trial %d but the log holds %d", ErrCorrupt, d.From, len(s.Trials))
	}
	s.Trial, s.Elapsed, s.BestKey, s.BestScore = d.Trial, d.Elapsed, d.BestKey, d.BestScore
	s.Trials = append(s.Trials, d.Trials...)
	s.Epochs = append(s.Epochs, d.Epochs...)
	if len(raw) > 0 {
		s.RunnerState = append(s.RunnerState, raw...)
	}
	return nil
}

// Load reads and validates the checkpoint at path (see decode), and notes
// where the snapshot came from, so a Keeper resuming it can append to the
// file (see Keeper.Resume). The caller distinguishes "no checkpoint yet"
// with errors.Is(err, os.ErrNotExist).
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.read.path = path
	return s, nil
}
