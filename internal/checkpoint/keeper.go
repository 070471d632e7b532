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
// at a round boundary (a cheap in-memory copy); the encode and fsync happen
// on a background goroutine. If that write is still in flight when the next
// one is due, the new snapshot is skipped rather than queued — the next
// write carries everything since the last one that completed, so a backlog
// would only delay it.
//
// The file is a Journal, and a write costs what the session changed since
// the last completed write, not what it holds: the first write, any write
// after a failed one, and any snapshot that does not extend the one on
// disk (see Snapshot.extends) atomically replace the file with one base
// record (see ReplaceFile); every other write appends and fsyncs one delta
// record. One Keeper owns its path, so its first base write sweeps the
// temps an earlier crash stranded there.
type Keeper struct {
	path string
	// Every is the trial cadence; zero means DefaultEveryTrials.
	Every int
	// SyncWrites makes Write complete the disk write before returning.
	// Tests use it to assert on-disk state; production leaves it off.
	SyncWrites bool

	tel *telemetry.Registry

	mu   sync.Mutex
	last int  // trial count at the most recent accepted write
	busy bool // a background write is in flight
	err  error
	wg   sync.WaitGroup

	// Owned by the write in flight (and Close, once none is): j is the
	// checkpoint file open for appends, nil until a base write succeeds
	// and again after any failed write; onDisk is the snapshot the file
	// holds, the last one whose write completed; swept is set once the
	// path's stale temps are gone.
	j      *Journal
	onDisk *Snapshot
	swept  bool
}

// NewKeeper returns a Keeper writing to path. tel may be nil.
func NewKeeper(path string, everyTrials int, tel *telemetry.Registry) *Keeper {
	return &Keeper{path: path, Every: everyTrials, tel: tel}
}

// Path returns the checkpoint destination.
func (k *Keeper) Path() string {
	if k == nil {
		return ""
	}
	return k.path
}

// Due reports whether a session at the given trial count should checkpoint.
func (k *Keeper) Due(trial int) bool {
	if k == nil {
		return false
	}
	every := k.Every
	if every <= 0 {
		every = DefaultEveryTrials
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return trial-k.last >= every
}

// Write persists snap asynchronously (synchronously when SyncWrites is
// set). Returns false when skipped because a prior write is still running.
// The keeper keeps snap (and the slices it shares) until a later write
// completes, so the caller must not modify what snap covers.
func (k *Keeper) Write(snap *Snapshot) bool {
	if k == nil {
		return false
	}
	k.mu.Lock()
	if k.busy {
		k.mu.Unlock()
		k.tel.Counter("checkpoint_write_skipped_total").Inc()
		return false
	}
	k.busy = true
	k.last = snap.Trial
	k.mu.Unlock()

	if k.SyncWrites {
		k.save(snap)
		return true
	}
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		k.save(snap)
	}()
	return true
}

// Final persists snap, the last snapshot of a session that ended, once any
// write in flight has finished, and returns when it is on disk: a due
// write skipped while another was in flight would otherwise leave the file
// short of the session's last trials. It writes nothing when the last
// completed write already holds snap's trials.
func (k *Keeper) Final(snap *Snapshot) {
	if k == nil {
		return
	}
	k.wg.Wait()
	if k.onDisk != nil && k.onDisk.Trial == snap.Trial {
		return
	}
	k.mu.Lock()
	k.busy = true
	k.last = snap.Trial
	k.mu.Unlock()
	k.save(snap)
}

func (k *Keeper) save(snap *Snapshot) {
	start := time.Now()
	n, err := k.persist(snap)
	k.tel.Histogram("checkpoint_write_seconds", telemetry.DefLatencyBuckets).Observe(time.Since(start).Seconds())
	if err != nil {
		// The file may end in a torn delta now (Load salvages past it);
		// the next write starts over with a base.
		k.closeFile()
		k.tel.Counter("checkpoint_write_errors_total").Inc()
	} else {
		k.onDisk = snap
		k.tel.Counter("checkpoint_writes_total").Inc()
		k.tel.Counter("checkpoint_bytes_written_total").Add(uint64(n))
		k.tel.Gauge("checkpoint_last_trial").Set(float64(snap.Trial))
	}
	k.mu.Lock()
	k.busy = false
	if err != nil {
		k.err = err
	}
	k.mu.Unlock()
}

// persist writes snap as a delta when the file holds a snapshot it
// extends, and as a base otherwise; it returns the bytes written.
func (k *Keeper) persist(snap *Snapshot) (int, error) {
	if k.j != nil && snap.extends(k.onDisk) {
		parts, err := encodeDelta(k.onDisk, snap)
		if err != nil {
			return 0, err
		}
		before := k.j.Size()
		if err := k.j.Append(parts...); err != nil {
			return 0, err
		}
		return int(k.j.Size() - before), nil
	}
	k.closeFile()
	parts, err := snap.encodeBase()
	if err != nil {
		return 0, err
	}
	if !k.swept {
		if n := SweepTemps(k.path); n > 0 {
			k.tel.Counter("checkpoint_stale_temps_removed_total").Add(uint64(n))
		}
		k.swept = true
	}
	j, err := createJournal(k.path, snapshotKind, parts...)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: save: %w", err)
	}
	k.j = j
	return int(j.Size()), nil
}

// closeFile releases the append handle; the next write is a base.
func (k *Keeper) closeFile() {
	if k.j != nil {
		k.j.Close()
		k.j = nil
	}
}

// Close waits for any in-flight write, releases the file, and returns the
// last write error, if any. A later Write starts over with a base. Safe on
// nil.
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
