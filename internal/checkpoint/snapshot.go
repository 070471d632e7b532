package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/bincode"
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
// stationary sessions). The JSON tags here and on the records are the
// layout of formats 1 to 4, which this build still reads; it writes
// format 5 (see encodeBase).
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

// Record kinds of a version 2 to 5 file. A base record opens the file:
// the whole snapshot. Delta records follow it: what each snapshot adds to
// the one before. Every record ends in runner-state bytes — the whole
// state in a base, the state's new suffix in a delta — carried raw, so no
// write re-encodes them.
//
// In a version 5 file the rest of a record is binary, in the fields of
// internal/bincode that the transfer store shares:
//
//	base:    'B', meta, scalars, measurement baseline, trials, epochs, state
//	delta:   'D', varint from, scalars, trials, epochs, state suffix
//	meta:    str workload, str searcher, str objective, str runner,
//	         varint seed, f64 budget_seconds, varint reps, varint workers,
//	         varint max_trials, str robustness, str transfer, str drift
//	scalars: varint trial, f64 elapsed, str best_key, f64 best_score
//	trials:  count, then per trial: varint seq, str key, measurement
//	epochs:  count, then per epoch: varint epoch, varint phase,
//	         varint trial, count priors, then per prior:
//	         str key, strs args, f64 norm
//
// A measurement is runner.EncodeMeasurement's, under the trial's key (the
// baseline's under ""). From is the trial count the delta continues, so a
// delta cannot splice onto the wrong log. Versions 2 to 4 wrote the same
// records with a JSON part in place of the binary fields: the kind byte,
// the uvarint length of the JSON, the JSON, then the state bytes.
const (
	recordBase  byte = 'B'
	recordDelta byte = 'D'
)

// The fewest bytes one list element takes in a version 5 record: a trial
// with an empty key and a measurement whose key is the trial's, an epoch
// without priors, and a prior with an empty key and no args. They bound
// what a count can make the decoder allocate.
const (
	minTrialBytes = 40
	minEpochBytes = 4
	minPriorBytes = 10
)

// encodeBase is the payload of s's base record, as parts: the binary
// fields, then the runner state.
func (s *Snapshot) encodeBase() ([][]byte, error) {
	e := bincode.Encoder{B: []byte{recordBase}}
	m := &s.Meta
	for _, f := range [...]string{m.Workload, m.Searcher, m.Objective, m.Runner} {
		e.Str(f)
	}
	e.Varint(m.Seed)
	e.Float(m.BudgetSeconds)
	for _, n := range [...]int{m.Reps, m.Workers, m.MaxTrials} {
		e.Varint(int64(n))
	}
	for _, f := range [...]string{m.Robustness, m.Transfer, m.Drift} {
		e.Str(f)
	}
	appendScalars(&e, s)
	runner.EncodeMeasurement(&e, &s.Baseline, "")
	appendLog(&e, s.Trials, s.Epochs)
	if e.Err != nil {
		return nil, fmt.Errorf("checkpoint: encode snapshot: %w", e.Err)
	}
	return [][]byte{e.B, s.RunnerState}, nil
}

// encodeDelta is the payload of the delta record prev → s adds, as parts;
// the caller has checked that s extends prev (see extends).
func encodeDelta(prev, s *Snapshot) ([][]byte, error) {
	e := bincode.Encoder{B: []byte{recordDelta}}
	e.Varint(int64(len(prev.Trials)))
	appendScalars(&e, s)
	appendLog(&e, s.Trials[len(prev.Trials):], s.Epochs[len(prev.Epochs):])
	if e.Err != nil {
		return nil, fmt.Errorf("checkpoint: encode delta: %w", e.Err)
	}
	return [][]byte{e.B, s.RunnerState[len(prev.RunnerState):]}, nil
}

func appendScalars(e *bincode.Encoder, s *Snapshot) {
	e.Varint(int64(s.Trial))
	e.Float(s.Elapsed)
	e.Str(s.BestKey)
	e.Float(s.BestScore)
}

func appendLog(e *bincode.Encoder, trials []TrialRecord, epochs []EpochRecord) {
	e.Count(len(trials), trials == nil)
	for i := range trials {
		t := &trials[i]
		e.Varint(int64(t.Seq))
		e.Str(t.Key)
		runner.EncodeMeasurement(e, &t.M, t.Key)
	}
	e.Count(len(epochs), epochs == nil)
	for _, ep := range epochs {
		e.Varint(int64(ep.Epoch))
		e.Varint(int64(ep.Phase))
		e.Varint(int64(ep.Trial))
		e.Count(len(ep.Priors), ep.Priors == nil)
		for _, p := range ep.Priors {
			e.Str(p.Key)
			e.Strs(p.Args)
			e.Float(p.Norm)
		}
	}
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

// decode reads a checkpoint file written by a Keeper, version 1 to 5. It
// fails closed on a bad header, a future version, a missing, torn or
// undecodable base (or version 1 snapshot) record, trailing data after a
// version 1 record, and any CRC-valid delta that does not decode or
// continue the log. A torn or CRC-corrupt tail — a delta whose write a
// crash cut short — is salvaged: the snapshot of the last complete record
// stands. The snapshot's strings and runner state share data's bytes, so
// the caller must never write to data again.
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
	readBase, readDelta := (*Snapshot).decodeBase, (*Snapshot).applyDelta
	if v < 5 {
		readBase, readDelta = (*Snapshot).decodeBaseJSON, (*Snapshot).applyDeltaJSON
	}
	raw, err := readBase(s, payload)
	if err != nil {
		return nil, err
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
		raw, err := readDelta(s, payload)
		if err != nil {
			return nil, err
		}
		if len(raw) > 0 {
			s.RunnerState = append(s.RunnerState, raw...)
		}
		rest = next
	}
}

// recordDecoder returns a decoder over a version 5 payload of the wanted
// kind, past its kind byte.
func recordDecoder(payload []byte, kind byte) (bincode.Decoder, error) {
	if len(payload) == 0 || payload[0] != kind {
		return bincode.Decoder{}, fmt.Errorf("%w: record is not a %c record", ErrCorrupt, kind)
	}
	return bincode.NewDecoder(payload[1:], bincode.StringView(payload[1:])), nil
}

// decodeBase reads a version 5 base record into s and returns its runner
// state.
func (s *Snapshot) decodeBase(payload []byte) ([]byte, error) {
	d, err := recordDecoder(payload, recordBase)
	if err != nil {
		return nil, err
	}
	m := &s.Meta
	m.Workload, m.Searcher, m.Objective, m.Runner = d.Str(), d.Str(), d.Str(), d.Str()
	m.Seed = d.Varint()
	m.BudgetSeconds = d.Float()
	m.Reps, m.Workers, m.MaxTrials = d.Int(), d.Int(), d.Int()
	m.Robustness, m.Transfer, m.Drift = d.Str(), d.Str(), d.Str()
	s.decodeScalars(&d)
	s.Baseline = runner.DecodeMeasurement(&d, "")
	s.decodeLog(&d)
	if !d.OK() {
		return nil, fmt.Errorf("%w: malformed base record", ErrCorrupt)
	}
	return d.Rest(), nil
}

// applyDelta folds a version 5 delta record into s and returns its runner
// state suffix.
func (s *Snapshot) applyDelta(payload []byte) ([]byte, error) {
	d, err := recordDecoder(payload, recordDelta)
	if err != nil {
		return nil, err
	}
	if from := d.Int(); d.OK() && from != len(s.Trials) {
		return nil, fmt.Errorf("%w: delta continues trial %d but the log holds %d", ErrCorrupt, from, len(s.Trials))
	}
	s.decodeScalars(&d)
	s.decodeLog(&d)
	if !d.OK() {
		return nil, fmt.Errorf("%w: malformed delta record", ErrCorrupt)
	}
	return d.Rest(), nil
}

func (s *Snapshot) decodeScalars(d *bincode.Decoder) {
	s.Trial = d.Int()
	s.Elapsed = d.Float()
	s.BestKey = d.Str()
	s.BestScore = d.Float()
}

// decodeLog appends a record's trials and epochs to s's. A base's nil
// list stays nil and its empty list empty.
func (s *Snapshot) decodeLog(d *bincode.Decoder) {
	if n, ok := d.Count(minTrialBytes); ok {
		s.Trials = grow(s.Trials, n)
		for range n {
			t := TrialRecord{Seq: d.Int(), Key: d.Str()}
			t.M = runner.DecodeMeasurement(d, t.Key)
			s.Trials = append(s.Trials, t)
		}
	}
	if n, ok := d.Count(minEpochBytes); ok {
		s.Epochs = grow(s.Epochs, n)
		for range n {
			ep := EpochRecord{Epoch: d.Int(), Phase: d.Int(), Trial: d.Int()}
			if n, ok := d.Count(minPriorBytes); ok {
				ep.Priors = make([]PriorRecord, n)
				for i := range ep.Priors {
					ep.Priors[i] = PriorRecord{Key: d.Str(), Args: d.Strs(), Norm: d.Float()}
				}
			}
			s.Epochs = append(s.Epochs, ep)
		}
	}
}

// grow makes room for n more elements in l, turning a nil l into an empty
// one.
func grow[T any](l []T, n int) []T {
	if l == nil {
		return make([]T, 0, n)
	}
	return slices.Grow(l, n)
}

// delta is a version 2 to 4 delta record's JSON part.
type delta struct {
	From      int           `json:"from"`
	Trial     int           `json:"trial"`
	Elapsed   float64       `json:"elapsed"`
	BestKey   string        `json:"best_key"`
	BestScore float64       `json:"best_score"`
	Trials    []TrialRecord `json:"trials,omitempty"`
	Epochs    []EpochRecord `json:"epochs,omitempty"`
}

// splitRecord splits a version 2 to 4 payload of the wanted kind into its
// JSON part and its raw runner-state bytes.
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

// decodeJSON is the strict JSON decoder every version 1 to 4 record goes
// through: unknown fields and trailing data are corruption, not
// extensions.
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

// decodeBaseJSON reads a version 2 to 4 base record into s and returns its
// runner state.
func (s *Snapshot) decodeBaseJSON(payload []byte) ([]byte, error) {
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
	return raw, nil
}

// applyDeltaJSON folds a version 2 to 4 delta record into s and returns
// its runner state suffix.
func (s *Snapshot) applyDeltaJSON(payload []byte) ([]byte, error) {
	js, raw, err := splitRecord(payload, recordDelta)
	if err != nil {
		return nil, err
	}
	var d delta
	if err := decodeJSON(js, &d); err != nil {
		return nil, fmt.Errorf("%w: delta record: %v", ErrCorrupt, err)
	}
	if d.From != len(s.Trials) {
		return nil, fmt.Errorf("%w: delta continues trial %d but the log holds %d", ErrCorrupt, d.From, len(s.Trials))
	}
	s.Trial, s.Elapsed, s.BestKey, s.BestScore = d.Trial, d.Elapsed, d.BestKey, d.BestScore
	s.Trials = append(s.Trials, d.Trials...)
	s.Epochs = append(s.Epochs, d.Epochs...)
	return raw, nil
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
