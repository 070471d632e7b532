package transfer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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
//
// The store whose last handle closed most recently stays resident: its
// file is closed, but what it decoded and the image of the file it decoded
// stay in memory, so the next Open of its directory decodes only the
// records the file no longer shares with that image.
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
	state
}

// state is what a store decoded from its file, the file's records in
// order. It outlives the file's descriptor while the store is resident.
type state struct {
	entries []*Entry
	nextSeq int64
	// groups maps a fingerprint's group key (appendGroupKey) to its
	// group's index in best, the group's best entry: lowest relScore, ties
	// to the lower Seq. Nearest answers from best without regrouping the
	// entries on every call. keys holds each group's key and group each
	// entry's group, so entries leave the index without a key being built.
	groups map[string]int
	best   []*Entry
	keys   []string
	group  []int
	// recs holds what each of the file's records left, so the state can
	// be cut back to any record boundary. A compaction, after which the
	// store is not kept resident, clears it.
	recs   []recEnd
	keyBuf []byte
}

// recEnd is what the records up to one record boundary leave: the number
// of entries and the next sequence number.
type recEnd struct {
	entries int
	nextSeq int64
}

// openStores is the process's table of open stores by absolute file path,
// and its one resident store: the one whose last handle closed most
// recently, its journal closed but its image and decoded state kept.
var openStores = struct {
	mu       sync.Mutex
	m        map[string]*store
	resident *store
}{m: make(map[string]*store)}

// Neighbor is one nearest-fingerprint lookup result.
type Neighbor struct {
	Entry    *Entry
	Distance float64
}

// Open opens (or creates) the transfer store under dir and replays it. If
// this process already has the directory's store open, Open returns a new
// handle on it instead of reading the file again. If the directory's store
// is the resident one, Open compares the file with the image that store
// decoded, keeps what the records they share left, and decodes only the
// records past them; a file that shares no record with the image decodes
// in full, as when nothing is resident. Either way, the cases below read
// the same.
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
	var prev *store
	if r := openStores.resident; r != nil && r.path == path {
		prev, openStores.resident = r, nil
	}
	s, err := load(path, prev, tel)
	if errors.Is(err, ErrCorrupt) {
		// Head corruption: not a store. Preserve the bytes and start fresh.
		if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
			return nil, fmt.Errorf("transfer: move corrupt store aside: %w", rerr)
		}
		tel.Counter("transfer_store_corrupt_total").Inc()
		s, err = load(path, nil, tel)
	}
	if err != nil {
		return nil, err
	}
	s.refs = 1
	openStores.m[path] = s
	return &Store{s: s, tel: tel}, nil
}

// load does one open-and-replay attempt against path, whose stale temps
// Open has swept, starting from prev, the resident store of path (nil for
// none). The store counts under its own names, and appends and compactions
// in the registry of the handle that made them, so its journal gets no
// registry.
func load(path string, prev *store, tel *telemetry.Registry) (*store, error) {
	s := &store{path: path}
	var known *checkpoint.Image
	if prev != nil {
		known, s.state = prev.j.Image(), prev.state
	}
	j, payloads, err := checkpoint.OpenSweptJournal(path, storeKind, known)
	if err != nil {
		return nil, fmt.Errorf("transfer: %w", err)
	}
	s.j = j
	s.cut(j.Kept())
	reused := len(s.entries)
	migrate := j.Version() < StoreVersion
	var cut bool
	if migrate {
		payloads, cut = migrateV1(payloads)
	}
	n := s.replay(payloads)
	cut = cut || n < len(payloads)
	if migrate || cut {
		if j.Kept() > 0 {
			// The kept records' payloads are not at hand to rewrite the
			// file from: read all of it, as a cold open does.
			j.Close()
			return load(path, nil, tel)
		}
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
	tel.Counter("transfer_store_entries_reused_total").Add(uint64(reused))
	tel.Counter("transfer_store_entries_replayed_total").Add(uint64(len(s.entries) - reused))
	return s, nil
}

// replay decodes v2 payloads into the state and returns how many decoded:
// a CRC-valid record that does not decode ends the valid prefix, as a torn
// frame does. The payloads must never be written afterwards, since the
// entries' strings share their bytes.
func (st *state) replay(payloads [][]byte) int {
	if st.groups == nil {
		// Each payload holds at most one entry, which opens at most one group.
		st.groups = make(map[string]int, len(payloads))
	}
	st.entries = slices.Grow(st.entries, len(payloads))
	st.recs = slices.Grow(st.recs, len(payloads))
	for i, p := range payloads {
		rec, err := decodeRecord(p, bincode.StringView(p))
		if err != nil {
			return i
		}
		st.add(&rec)
	}
	return len(payloads)
}

// add files one decoded record, and records what it leaves.
func (st *state) add(rec *storeRecord) {
	if rec.Kind == "mark" {
		st.nextSeq = max(st.nextSeq, rec.NextSeq)
	} else {
		e := rec.Entry
		st.entries = append(st.entries, e)
		if e.Seq >= st.nextSeq {
			st.nextSeq = e.Seq + 1
		}
		st.index(e)
	}
	st.recs = append(st.recs, recEnd{len(st.entries), st.nextSeq})
}

// index files e under its fingerprint group, replacing the group's best
// entry if e ranks ahead of it.
func (st *state) index(e *Entry) {
	st.keyBuf = e.FP.appendGroupKey(st.keyBuf[:0])
	g, ok := st.groups[string(st.keyBuf)]
	if !ok {
		g = len(st.best)
		k := string(st.keyBuf)
		st.groups[k] = g
		st.keys = append(st.keys, k)
		st.best = append(st.best, e)
	} else if e.ahead(st.best[g]) {
		st.best[g] = e
	}
	st.group = append(st.group, g)
}

// ahead reports whether e ranks ahead of b in its group: a lower relScore,
// ties to the lower Seq.
func (e *Entry) ahead(b *Entry) bool {
	r, rb := e.relScore(), b.relScore()
	return r < rb || r == rb && e.Seq < b.Seq
}

// cut keeps what the file's first n records left. The entries past them
// leave the index, whose groups are ranked again from the entries kept.
func (st *state) cut(n int) {
	if n == len(st.recs) {
		return
	}
	if n == 0 {
		*st = state{}
		return
	}
	r := st.recs[n-1]
	clear(st.entries[r.entries:])
	st.entries, st.group, st.recs, st.nextSeq = st.entries[:r.entries], st.group[:r.entries], st.recs[:n], r.nextSeq
	clear(st.best)
	groups := 0
	for i, e := range st.entries {
		g := st.group[i]
		groups = max(groups, g+1)
		if b := st.best[g]; b == nil || e.ahead(b) {
			st.best[g] = e
		}
	}
	for _, k := range st.keys[groups:] {
		delete(st.groups, k)
	}
	st.keys, st.best = st.keys[:groups], st.best[:groups]
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
	s.add(&storeRecord{Kind: "entry", Entry: &cp})
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
	s.entries, s.recs = kept, nil
	clear(s.groups)
	s.best, s.keys, s.group = s.best[:0], s.keys[:0], s.group[:0]
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
// file and makes the store the resident one, in place of any other, with
// what the records its opens read left, unless a compaction or a migration
// rewrote the file: the entries alias the bytes they were decoded from.
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
	err := s.j.Close()
	if img := s.j.Image(); err == nil && img != nil {
		// Entries appended since the last open share their caller's
		// lists, and lie past the image: the next open decodes them.
		s.cut(img.Records())
		openStores.resident = &store{path: s.path, j: s.j, state: s.state}
	}
	s.state = state{}
	return err
}
