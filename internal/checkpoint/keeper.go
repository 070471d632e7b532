package checkpoint

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// DefaultEveryTrials is the checkpoint cadence when the caller does not pick
// one: frequent enough that a crash loses at most a handful of trials, rare
// enough that the write cost (encoding the rounds since the last write and
// one appended, fsynced record) is noise next to even one virtual
// measurement.
const DefaultEveryTrials = 8

// Keeper writes one session's snapshots to a fixed path on a trial cadence
// without blocking the session. The engine hands it a fully-built Snapshot
// at a round boundary (a cheap in-memory copy) and goes on; a background
// writer encodes and writes it. Every snapshot handed over becomes exactly
// one record, in order (group commit): the writer takes everything queued
// since its last write and puts it in the file with one write and one
// fsync. Which records the file holds therefore depends on the snapshots
// alone, never on how fast the disk is.
//
// The file is a Journal, and a record costs what the session changed since
// the snapshot before it, not what it holds. A record is a base when the
// file is new, after a failed write, or when the snapshot does not extend
// the one before it (see Snapshot.extends); a base atomically replaces the
// file (see ReplaceFile). Every other record is a delta, appended. A Keeper
// continuing a resumed session appends to the file the session was loaded
// from (see Resume). One Keeper owns its path, so its first write sweeps
// the temps an earlier crash stranded there.
type Keeper struct {
	path  string
	every int // the trial cadence
	tel   *telemetry.Registry

	mu      sync.Mutex
	last    int         // trial count of the last snapshot queued or resumed
	queue   []*Snapshot // handed over, not yet taken by the writer
	writing bool        // a writer goroutine is running
	err     error
	wg      sync.WaitGroup

	// Owned by the writer (and by Close once it has drained): j is the
	// checkpoint file open for appends, nil until a write succeeds and
	// again after a failed one; onDisk is the snapshot the file holds;
	// cont is set while the first write should continue the file onDisk
	// was loaded from; swept is set once the path's stale temps are gone.
	j      *Journal
	onDisk *Snapshot
	cont   bool
	swept  bool
}

// NewKeeper returns a Keeper writing to path every everyTrials trials
// (DefaultEveryTrials when not positive). tel may be nil.
func NewKeeper(path string, everyTrials int, tel *telemetry.Registry) *Keeper {
	if everyTrials <= 0 {
		everyTrials = DefaultEveryTrials
	}
	return &Keeper{path: path, every: everyTrials, tel: tel}
}

// Due reports whether a session at the given trial count should checkpoint.
func (k *Keeper) Due(trial int) bool {
	if k == nil {
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return trial-k.last >= k.every
}

// Resume tells the Keeper its session continues snap, a snapshot Load
// read. The cadence then counts from snap's trial, so nothing is written
// while the session replays what the file holds, and a session that
// delivers no trial past it writes nothing. When Load read snap from this
// Keeper's path, the first write appends to that file, once it has checked
// the file is still the one Load read (its size, and a header at the
// current version) and cut a torn tail back to the prefix Load decoded.
// Otherwise (a file at an older version, another path, a file changed
// since) the first write is a base. Call it before the first Write.
func (k *Keeper) Resume(snap *Snapshot) {
	if k == nil {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.last = snap.Trial
	k.onDisk = snap
	k.cont = snap.read.path == k.path
}

// Write queues snap for the background writer and returns without waiting
// for the disk. A snapshot holding no trial past the last one queued (or
// resumed) is dropped: the file already holds its trials. The Keeper keeps
// snap (and the slices it shares) until the one after it is written, so
// the caller must not modify what snap covers.
func (k *Keeper) Write(snap *Snapshot) {
	if k == nil {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if snap.Trial <= k.last {
		return
	}
	k.last = snap.Trial
	k.queue = append(k.queue, snap)
	if !k.writing {
		k.writing = true
		k.wg.Add(1)
		go k.drain()
	}
}

// drain is the writer: it writes what is queued, one batch per write, and
// exits once the queue is empty.
func (k *Keeper) drain() {
	defer k.wg.Done()
	for {
		k.mu.Lock()
		batch := k.queue
		k.queue = nil
		if len(batch) == 0 {
			k.writing = false
			k.mu.Unlock()
			return
		}
		k.mu.Unlock()
		k.save(batch)
	}
}

func (k *Keeper) save(batch []*Snapshot) {
	start := time.Now()
	n, err := k.persist(batch)
	k.tel.Histogram("checkpoint_write_seconds", telemetry.DefLatencyBuckets).Observe(time.Since(start).Seconds())
	if err != nil {
		// The file may end in a torn delta now (Load salvages past it);
		// the next write starts over with a base.
		k.closeFile()
		k.tel.Counter("checkpoint_write_errors_total").Inc()
		k.mu.Lock()
		k.err = err
		k.mu.Unlock()
		return
	}
	k.onDisk = batch[len(batch)-1]
	k.tel.Counter("checkpoint_writes_total").Add(uint64(len(batch)))
	k.tel.Counter("checkpoint_bytes_written_total").Add(uint64(n))
	k.tel.Gauge("checkpoint_last_trial").Set(float64(k.onDisk.Trial))
}

// persist writes one record per snapshot of batch, in one write, and
// returns the bytes written: deltas append to the file, and a base starts
// the file over holding itself and the deltas after it. A base supersedes
// the records before it in the batch, which the file it replaces would
// have held.
func (k *Keeper) persist(batch []*Snapshot) (int, error) {
	if !k.swept {
		if n := SweepTemps(k.path); n > 0 {
			k.tel.Counter("checkpoint_stale_temps_removed_total").Add(uint64(n))
		}
		k.swept = true
	}
	if k.cont {
		// A file that is no longer the one Load read gets a base.
		k.cont = false
		k.j, _ = reopenJournal(k.path, snapshotKind, k.onDisk.read.size, k.onDisk.read.valid)
	}
	recs := make([][][]byte, 0, len(batch)) // each record as its parts
	base := false
	prev := k.onDisk
	for _, s := range batch {
		var parts [][]byte
		var err error
		if (k.j != nil || len(recs) > 0) && s.extends(prev) {
			parts, err = encodeDelta(prev, s)
		} else {
			recs, base = recs[:0], true
			parts, err = s.encodeBase()
		}
		if err != nil {
			return 0, err
		}
		recs = append(recs, parts)
		prev = s
	}
	if base {
		k.closeFile()
		j, err := createJournal(k.path, snapshotKind, recs...)
		if err != nil {
			return 0, fmt.Errorf("checkpoint: save: %w", err)
		}
		k.j = j
		return int(j.Size()), nil
	}
	before := k.j.Size()
	if err := k.j.appendRecords(recs...); err != nil {
		return 0, err
	}
	return int(k.j.Size() - before), nil
}

// closeFile releases the append handle; the next write is a base.
func (k *Keeper) closeFile() {
	if k.j != nil {
		k.j.Close()
		k.j = nil
	}
}

// Close waits until every queued snapshot is written, releases the file,
// and returns the last write error, if any. A later Write starts over with
// a base. Safe on nil.
func (k *Keeper) Close() error {
	if k == nil {
		return nil
	}
	k.wg.Wait()
	k.closeFile()
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.err
}
