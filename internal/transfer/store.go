package transfer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/bincode"
	"repro/internal/checkpoint"
	"repro/internal/telemetry"
)

// StoreVersion is the on-disk format version written by this build; readers
// reject anything newer (fail closed — a future format may carry fields this
// build would silently drop, and overwriting a newer store would destroy a
// newer build's knowledge). Older versions are migrated on open.
const StoreVersion = 2

// storeKind is the store file's format: a checkpoint.Journal whose magic
// "ATTS" differs from the checkpoint magic, so a store can never be
// mistaken for a journal (or vice versa) by a misconfigured path.
var storeKind = checkpoint.Kind{Magic: "ATTS", Version: StoreVersion}

// storeFile is the store's file name inside the -transfer-dir directory.
const storeFile = "transfer.store"

// compactBytes is the size past which Append considers compacting. The
// store grows one small record per completed session, so compaction is
// rare; the 2×-since-last-compaction rule keeps its cost amortized O(1)
// per append even for long-lived stores.
const compactBytes = 1 << 20

// Sentinel decode errors, matched with errors.Is. They are the
// checkpoint package's: the store is a checkpoint.Journal.
var (
	// ErrCorrupt marks unreadable on-disk state: bad magic, torn records,
	// CRC mismatches, implausible lengths, undecodable entries.
	ErrCorrupt = checkpoint.ErrCorrupt
	// ErrFutureVersion marks a store written by a newer format revision.
	ErrFutureVersion = checkpoint.ErrFutureVersion
)

// errClosed is returned by writes through a closed handle.
var errClosed = errors.New("transfer: store closed")

// Entry is one unit of tuning knowledge: the best configuration a completed
// session found for a fingerprinted workload, with enough provenance to
// judge and reproduce it. Args is the configuration's canonical form as
// ExplicitArgs renders it — the rendered command-line form survives
// registry generations, unlike interned flag IDs, and is re-parsed (and
// repaired) against the live registry at warm-start time. Entries written
// by older builds carry every explicit assignment, a superset that parses
// to the same values.
//
// Entries deliberately carry no wall-clock timestamp: the store feeds
// deterministic fixed-seed sessions, and Seq already orders entries by
// arrival.
type Entry struct {
	// Seq is the store-assigned append sequence number, unique per store.
	Seq int64 `json:"seq"`
	// FP is the workload's fingerprint at the time of tuning.
	FP Fingerprint `json:"fp"`
	// Workload and Suite identify the tuned profile for humans.
	Workload string `json:"workload"`
	Suite    string `json:"suite,omitempty"`
	// Searcher, Objective, Seed, Reps, Trials and BudgetSeconds are the
	// session provenance: how this result was obtained.
	Searcher      string  `json:"searcher"`
	Objective     string  `json:"objective"`
	Seed          int64   `json:"seed"`
	Reps          int     `json:"reps"`
	Trials        int     `json:"trials"`
	BudgetSeconds float64 `json:"budget_seconds"`
	// Args is the winning configuration's canonical form as command-line
	// assignments (flags.Config.ExplicitArgs).
	Args []string `json:"args"`
	// Score is the winning objective value; BaselineScore is the default
	// configuration's value under the same session, so Score/BaselineScore
	// compares entries across workloads of different absolute cost.
	Score         float64 `json:"score"`
	BaselineScore float64 `json:"baseline_score"`
}

// relScore is the scale-free goodness used to rank entries within a
// fingerprint group: objective score normalized by the session's baseline.
// Lower is better (the objective is minimized).
func (e *Entry) relScore() float64 {
	if e.BaselineScore > 0 {
		return e.Score / e.BaselineScore
	}
	return e.Score
}

// Store is a handle on the persistent cross-workload knowledge base: a
// checkpoint.Journal of entry records. Appends are fsynced before
// returning, so an entry the caller saw accepted survives a crash; recovery
// is forgiving about the tail (a crash mid-append salvages the valid
// prefix) and strict about the head. Compaction keeps only the best entry
// per (fingerprint, configuration) and rewrites the file atomically behind
// a sequence watermark.
//
// Every Open of one directory within a process returns a handle on the same
// reference-counted store — one file descriptor, one lock, one index — so
// concurrent sessions sharing a directory append to one file in one
// sequence. A store directory belongs to one process.
type Store struct {
	s      *store
	tel    *telemetry.Registry
	closed bool // guarded by s.mu
}

// store is the state every handle on one store file shares.
type store struct {
	path string
	refs int // open handles; guarded by openStores.mu

	mu      sync.Mutex
	j       *checkpoint.Journal
	lastCmp int64 // size after the most recent compaction (or open)
	entries []*Entry
	nextSeq int64
	// groups maps a fingerprint's group key (appendGroupKey) to its
	// group's index in best, the group's best entry: lowest relScore, ties
	// to the lower Seq. Nearest answers from best without regrouping the
	// entries on every call.
	groups map[string]int
	best   []*Entry
	keyBuf []byte
}

// openStores is the process's table of open stores by absolute file path.
var openStores = struct {
	mu sync.Mutex
	m  map[string]*store
}{m: make(map[string]*store)}

// Neighbor is one nearest-fingerprint lookup result.
type Neighbor struct {
	Entry    *Entry
	Distance float64
}

// Open opens (or creates) the transfer store under dir and replays it. If
// this process already has the directory's store open, Open returns a new
// handle on it instead of reading the file again; the last Close of a
// store's handles closes the file and drops its in-memory state.
//
// Recovery policy, in order of severity:
//   - empty file → initialize a fresh header;
//   - format v1 → rewrite as v2 through the journal's atomic rewrite,
//     keeping every record, counting transfer_store_migrated_total;
//   - torn or corrupt tail (crash mid-append), or a CRC-valid record that
//     does not decode → cut back to the valid prefix, count
//     transfer_store_salvaged_total, continue. Garbage in the first record
//     therefore salvages to an empty store;
//   - corrupt header (bad magic, a file too short for one) that makes the
//     file "not a store at all" → the file is renamed aside to
//     <name>.corrupt (preserving the bytes for inspection) and a fresh
//     store starts, counting transfer_store_corrupt_total — a bogus store
//     degrades the session to a cold start, it never aborts it;
//   - future version → ErrFutureVersion. This is the one fail-closed case
//     with no recovery: the file is fine, this build is just too old to be
//     trusted with it, and renaming it aside would destroy newer knowledge.
func Open(dir string, tel *telemetry.Registry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("transfer: %w", err)
	}
	path, err := filepath.Abs(filepath.Join(dir, storeFile))
	if err != nil {
		return nil, fmt.Errorf("transfer: %w", err)
	}
	openStores.mu.Lock()
	defer openStores.mu.Unlock()
	if s := openStores.m[path]; s != nil {
		s.refs++
		return &Store{s: s, tel: tel}, nil
	}

	// No handle in this process has the store open, so none is compacting
	// while the stale compaction temps go. The sweep is counted even when
	// the open then fails on the header.
	if n := checkpoint.SweepTemps(path); n > 0 {
		tel.Counter("transfer_store_stale_temps_removed_total").Add(uint64(n))
	}
	s, err := load(path, tel)
	if errors.Is(err, ErrCorrupt) {
		// Head corruption: not a store. Preserve the bytes and start fresh.
		if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
			return nil, fmt.Errorf("transfer: move corrupt store aside: %w", rerr)
		}
		tel.Counter("transfer_store_corrupt_total").Inc()
		s, err = load(path, tel)
	}
	if err != nil {
		return nil, err
	}
	s.refs = 1
	openStores.m[path] = s
	return &Store{s: s, tel: tel}, nil
}

// load does one open-and-replay attempt against path, whose stale temps
// Open has swept. The store counts under its own names, and appends and
// compactions in the registry of the handle that made them, so its
// journal gets no registry.
func load(path string, tel *telemetry.Registry) (*store, error) {
	j, payloads, err := checkpoint.OpenSweptJournal(path, storeKind, nil)
	if err != nil {
		return nil, fmt.Errorf("transfer: %w", err)
	}
	migrate := j.Version() < StoreVersion
	var cut bool
	if migrate {
		payloads, cut = migrateV1(payloads)
	}
	// Each payload holds at most one entry, which opens at most one group.
	s := &store{j: j, path: path, entries: make([]*Entry, 0, len(payloads)),
		groups: make(map[string]int, len(payloads)), best: make([]*Entry, 0, len(payloads))}
	n := s.replay(payloads)
	cut = cut || n < len(payloads)
	if migrate || cut {
		if err := j.Rewrite(payloads[:n]); err != nil {
			j.Close()
			return nil, fmt.Errorf("transfer: %w", err)
		}
	}
	if migrate {
		tel.Counter("transfer_store_migrated_total").Inc()
	}
	if cut || j.Salvaged() {
		tel.Counter("transfer_store_salvaged_total").Inc()
	}
	s.lastCmp = j.Size()
	tel.Counter("transfer_store_entries_replayed_total").Add(uint64(len(s.entries)))
	return s, nil
}

// replay decodes v2 payloads into the store and returns how many decoded:
// a CRC-valid record that does not decode ends the valid prefix, as a torn
// frame does. The payloads must never be written afterwards, since the
// entries' strings share their bytes.
func (s *store) replay(payloads [][]byte) int {
	var a slabs
	for i, p := range payloads {
		a.left = len(payloads) - i
		rec, err := decodeRecord(p, bincode.StringView(p), &a)
		if err != nil {
			return i
		}
		if rec.Kind == "mark" {
			s.nextSeq = max(s.nextSeq, rec.NextSeq)
			continue
		}
		e := rec.Entry
		s.entries = append(s.entries, e)
		if e.Seq >= s.nextSeq {
			s.nextSeq = e.Seq + 1
		}
		s.index(e)
	}
	return len(payloads)
}

// index files e under its fingerprint group, replacing the group's best
// entry if e ranks ahead of it.
func (s *store) index(e *Entry) {
	s.keyBuf = e.FP.appendGroupKey(s.keyBuf[:0])
	i, ok := s.groups[string(s.keyBuf)]
	if !ok {
		s.groups[string(s.keyBuf)] = len(s.best)
		s.best = append(s.best, e)
		return
	}
	b := s.best[i]
	if r, rb := e.relScore(), b.relScore(); r < rb || r == rb && e.Seq < b.Seq {
		s.best[i] = e
	}
}

// Len returns the number of live entries.
func (h *Store) Len() int {
	if h == nil {
		return 0
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return len(h.s.entries)
}

// Entries returns a copy of the live entry list in sequence order.
func (h *Store) Entries() []*Entry {
	if h == nil {
		return nil
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.bySeq()
}

// bySeq returns the entries in sequence order, ties in file order.
func (s *store) bySeq() []*Entry {
	out := make([]*Entry, len(s.entries))
	copy(out, s.entries)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Append durably records one entry: the store assigns its sequence number,
// appends the record to the journal, then opportunistically compacts once the
// file has outgrown both the compaction floor and twice its size at the
// last compaction. An entry holding a NaN or infinite float is rejected.
func (h *Store) Append(e *Entry) error {
	if h == nil {
		return nil
	}
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.closed {
		return errClosed
	}
	cp := *e
	cp.Seq = s.nextSeq
	payload, err := appendEntry(nil, &cp)
	if err != nil {
		return fmt.Errorf("transfer: encode entry: %w", err)
	}
	if err := s.j.Append(payload); err != nil {
		return fmt.Errorf("transfer: %w", err)
	}
	s.nextSeq++
	s.entries = append(s.entries, &cp)
	s.index(&cp)
	h.tel.Counter("transfer_store_appends_total").Inc()
	if size := s.j.Size(); size > compactBytes && size > 2*s.lastCmp {
		return s.compact(h.tel)
	}
	return nil
}

// Compact rewrites the store keeping only the best entry per
// (fingerprint, configuration) group, atomically (see Journal.Rewrite). A mark
// record carrying the next sequence number is written first, so sequence
// assignment survives even when compaction drops the highest-numbered
// entries.
func (h *Store) Compact() error {
	if h == nil {
		return nil
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	if h.closed {
		return errClosed
	}
	return h.s.compact(h.tel)
}

// compact is Compact with s.mu held.
func (s *store) compact(tel *telemetry.Registry) error {
	// Keep the best (lowest relScore, ties to the earliest Seq) entry for
	// each distinct (fingerprint, configuration) pair, keyed by the group
	// key and then each argument behind its length. Iterating in Seq order
	// makes "first wins on tie" fall out of the strict < comparison.
	best := make(map[string]*Entry)
	var keys []string
	var buf []byte
	for _, e := range s.bySeq() {
		buf = e.FP.appendGroupKey(buf[:0])
		for _, a := range e.Args {
			buf = append(binary.AppendUvarint(buf, uint64(len(a))), a...)
		}
		k := string(buf)
		if cur, ok := best[k]; !ok {
			best[k] = e
			keys = append(keys, k)
		} else if e.relScore() < cur.relScore() {
			best[k] = e
		}
	}

	// The watermark leads: a reader of the compacted store learns the next
	// sequence number before any entry, so a store compacted down to zero
	// entries still never reissues a sequence number.
	payloads := [][]byte{appendMark(nil, s.nextSeq)}
	kept := make([]*Entry, 0, len(best))
	for _, k := range keys {
		e := best[k]
		payload, err := appendEntry(nil, e)
		if err != nil {
			return fmt.Errorf("transfer: compact encode: %w", err)
		}
		payloads = append(payloads, payload)
		kept = append(kept, e)
	}
	if err := s.j.Rewrite(payloads); err != nil {
		return fmt.Errorf("transfer: compact: %w", err)
	}
	s.lastCmp = s.j.Size()
	s.entries = kept
	clear(s.groups)
	s.best = s.best[:0]
	for _, e := range kept {
		s.index(e)
	}
	tel.Counter("transfer_store_compactions_total").Inc()
	return nil
}

// Nearest returns the k nearest distinct fingerprint groups to fp, each
// represented by its best entry (lowest baseline-relative score, ties to
// the earliest sequence number). Results are ordered by distance, with
// workload name then sequence number as deterministic tie-breaks; entries
// at infinite distance (other fingerprint versions) are excluded. k ≤ 0
// defaults to 3.
func (h *Store) Nearest(fp Fingerprint, k int) []Neighbor {
	if h == nil {
		return nil
	}
	if k <= 0 {
		k = 3
	}
	h.s.mu.Lock()
	defer h.s.mu.Unlock()

	// Keep the k best neighbours seen so far in order. A new one goes
	// behind every neighbour it does not rank ahead of; once k are kept,
	// it takes the place of the last.
	out := make([]Neighbor, 0, min(k, len(h.s.best)))
	for _, e := range h.s.best {
		nb := Neighbor{Entry: e, Distance: fp.Distance(e.FP)}
		if math.IsInf(nb.Distance, 1) || len(out) == k && !nb.before(&out[k-1]) {
			continue
		}
		if len(out) < k {
			out = append(out, nb)
		}
		i := len(out) - 1
		for ; i > 0 && nb.before(&out[i-1]); i-- {
			out[i] = out[i-1]
		}
		out[i] = nb
	}
	return out
}

// before reports whether n ranks ahead of o in Nearest's order: by
// distance, then workload name, then sequence number.
func (n *Neighbor) before(o *Neighbor) bool {
	if n.Distance != o.Distance {
		return n.Distance < o.Distance
	}
	if n.Entry.Workload != o.Entry.Workload {
		return n.Entry.Workload < o.Entry.Workload
	}
	return n.Entry.Seq < o.Entry.Seq
}

// Close releases the handle; later Appends through it fail. Closing a
// handle twice is a no-op. The last Close of a store's handles closes its
// file and drops its in-memory state, so the next Open reads the file
// again.
func (h *Store) Close() error {
	if h == nil {
		return nil
	}
	openStores.mu.Lock()
	defer openStores.mu.Unlock()
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	if s.refs--; s.refs > 0 {
		return nil
	}
	delete(openStores.m, s.path)
	s.entries, s.groups, s.best = nil, nil, nil
	return s.j.Close()
}
