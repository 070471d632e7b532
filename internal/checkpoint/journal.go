package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/telemetry"
)

// Journal is an append-only write-ahead log of framed records, used by the
// tuning farm to make job submissions, state transitions, and results
// durable. Appends are fsynced before returning, so a record the caller saw
// accepted survives a crash. Rewrite compacts the log in place (atomically,
// via a temp file renamed over the journal) once the caller decides the
// append history has grown past what its live state justifies.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	size   int64 // bytes of valid journal (header + records)
	closed bool
	tel    *telemetry.Registry
}

// OpenJournal opens (or creates) the journal at path and replays it,
// returning the decoded record payloads in append order.
//
// Recovery is deliberately forgiving about the tail and strict about the
// head: a crash mid-append legitimately leaves a torn last record, so a
// corrupt tail is truncated back to the end of the valid prefix and the
// journal reopens for appends — losing only the record that never finished.
// A corrupt header, by contrast, means the file is not a journal at all
// (or was written by a future version), and replaying a guess would
// resurrect a farm state that never existed; that fails closed.
func OpenJournal(path string, tel *telemetry.Registry) (*Journal, [][]byte, error) {
	// A crash mid-Rewrite can strand a temp file next to the journal; it
	// was never renamed, so it holds no authoritative state — sweep it.
	if stale, _ := filepath.Glob(path + ".compact*"); len(stale) > 0 {
		for _, p := range stale {
			os.Remove(p)
		}
		tel.Counter("journal_stale_temps_removed_total").Add(uint64(len(stale)))
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, path: path, tel: tel}

	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if len(data) == 0 {
		if err := writeHeader(f, journalVersion); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: init header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: init sync: %w", err)
		}
		j.size = headerSize
		return j, nil, nil
	}

	if _, err := parseHeader(data, journalVersion); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal %s: %w", path, err)
	}

	var records [][]byte
	valid := int64(headerSize) // byte offset of the end of the valid prefix
	for rest := data[headerSize:]; ; {
		payload, next, err := nextRecord(rest)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn tail from a crash mid-append: salvage the valid prefix.
			if terr := f.Truncate(valid); terr != nil {
				f.Close()
				return nil, nil, fmt.Errorf("journal %s: truncate corrupt tail: %w", path, terr)
			}
			if serr := f.Sync(); serr != nil {
				f.Close()
				return nil, nil, fmt.Errorf("journal %s: sync after truncate: %w", path, serr)
			}
			tel.Counter("journal_salvaged_total").Inc()
			break
		}
		records = append(records, payload)
		valid += int64(len(rest) - len(next))
		rest = next
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal %s: seek: %w", path, err)
	}
	j.size = valid
	tel.Counter("journal_records_replayed_total").Add(uint64(len(records)))
	return j, records, nil
}

// Size returns the journal's current on-disk size in bytes (header plus
// valid records). Callers use it to decide when a Rewrite pays off.
func (j *Journal) Size() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Append durably writes one record: framed, then fsynced.
func (j *Journal) Append(payload []byte) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	if _, err := writeRecord(j.f, payload); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: append sync: %w", err)
	}
	j.size += recordHeaderSize + int64(len(payload))
	j.tel.Counter("journal_appends_total").Inc()
	return nil
}

// Rewrite atomically replaces the journal's contents with the given record
// payloads: they are written to a temp file in the journal's directory,
// fsynced, and renamed over the journal — a crash at any point leaves
// either the complete old log or the complete new one, never a mix. The
// stranded temp of a crash-before-rename is swept by the next OpenJournal.
// On success the journal continues appending after the last new record.
func (j *Journal) Rewrite(payloads [][]byte) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	f, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".compact*")
	if err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	tmp := f.Name()
	abort := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := writeHeader(f, journalVersion); err != nil {
		return abort(fmt.Errorf("journal: rewrite header: %w", err))
	}
	size := int64(headerSize)
	for _, p := range payloads {
		n, err := writeRecord(f, p)
		if err != nil {
			return abort(fmt.Errorf("journal: rewrite record: %w", err))
		}
		size += int64(n)
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("journal: rewrite sync: %w", err))
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return abort(fmt.Errorf("journal: rewrite: %w", err))
	}
	// The temp fd is now the journal: positioned at its end, ready for
	// appends. Close the superseded file only after the swap is in place.
	old := j.f
	j.f = f
	j.size = size
	old.Close()
	j.tel.Counter("journal_compactions_total").Inc()
	return nil
}

// Close closes the journal; later Appends fail.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}
