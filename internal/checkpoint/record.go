// Package checkpoint is the tuner's durability layer: crash-safe snapshots
// of in-flight tuning sessions, an append-only write-ahead journal for
// the tuning farm, and the one framed-file format under both of them and
// under the transfer store.
//
// The paper's headline cost is wall-clock — up to 200 minutes of tuning per
// program — so losing in-flight state to a crash, OOM, or operator restart
// forfeits real time. This package makes that state durable with one shared
// on-disk framing: a magic+version header (the file's Kind) followed by
// length- and CRC32-guarded records. Journal is the one implementation of
// such a file: it opens and replays one, salvages a torn tail, appends
// fsynced records, and replaces the whole file atomically (ReplaceFile: a
// temp file, fsynced, then renamed over the old one, so a reader only ever
// sees the complete old file or the complete new one). A snapshot file is a
// journal of one base record followed by delta records appended as the
// session goes. Recovery salvages the valid prefix of a truncated or
// corrupted tail instead of refusing to start. Everything else fails
// closed: corrupt headers, a torn base, CRC-valid records that do not
// decode, and future format versions are errors, never panics and never
// partially-applied state. What a record means, and what a caller does with
// one it cannot decode, stays with the caller.
//
// A session Snapshot captures everything a killed session needs to continue
// and converge to the byte-identical outcome of an uninterrupted run: the
// session fingerprint (Meta), the baseline measurement, the ordered log of
// every delivered measurement, and the runner's per-key state (evaluated-
// config cache, noise-rep indices, chaos attempt counters, elapsed virtual
// clock). Searcher and RNG state are deliberately *not* serialized —
// searchers key in-flight work by pointer, which no flat encoding survives.
// Instead core.Session replays the measurement log through the searcher on
// resume: the engine is deterministic, so replay reconstructs searcher and
// RNG state exactly. See core.Session.Resume and docs/DURABILITY.md.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Version is the checkpoint format version written by this build; readers
// reject anything newer (fail closed — a future format may carry state this
// build would silently drop). Version 2 is a base record plus appended
// deltas; version 1 files (one whole-snapshot record) still load. Version
// 3 keeps version 2's records; it marks runner state whose chaos layer
// derives its settled keys from the inner runner's cache instead of
// storing them, which a version 2 build would restore with nothing
// settled. Version 4 keeps them too; it marks a chaos session's runner
// state as one stream, the harness's, whose segments carry the launch
// counters beside the rep indices, where a version 3 build expects the
// chaos layer's stream nesting the inner runner's. Versions 1 to 3 still
// load: runner.State folds their nested chaos segments.
const Version = 4

// magic opens every checkpoint file and journal.
const magic = "ATCK"

// Kind is the format of one kind of framed file: the four-byte magic its
// header opens with and the newest version this build writes; readers
// reject anything newer. Each file kind is one fixed value; nothing
// configures it.
type Kind struct {
	Magic   string
	Version uint32
}

// JournalKind is the farm's and the fleet's write-ahead journal. Journals
// did not change with checkpoint versions 2 to 4, and keeping them at 1
// means a downgraded build can still replay a farm's history.
var JournalKind = Kind{Magic: magic, Version: 1}

// snapshotKind is a session checkpoint file.
var snapshotKind = Kind{Magic: magic, Version: Version}

// headerSize is the byte length of the file header (magic + version).
const headerSize = 8

// recordHeaderSize is the byte length of each record's frame (length + CRC).
const recordHeaderSize = 8

// maxRecordBytes bounds a single record. Real snapshots are a few megabytes
// at most; anything claiming more is a garbled length field, and failing
// here keeps a corrupt file from turning into a multi-gigabyte allocation.
const maxRecordBytes = 1 << 28

// Sentinel decode errors, matched with errors.Is.
var (
	// ErrCorrupt marks unreadable on-disk state: bad magic, torn records,
	// CRC mismatches, implausible lengths.
	ErrCorrupt = errors.New("checkpoint: corrupt data")
	// ErrFutureVersion marks files written by a newer format revision.
	ErrFutureVersion = errors.New("checkpoint: future format version")
)

// header is the file header of a kind k file at its newest version:
// magic then version, little-endian.
func (k Kind) header() []byte {
	return binary.LittleEndian.AppendUint32([]byte(k.Magic), k.Version)
}

// parseHeader validates the header at the start of b against kind k and
// returns the file's format version.
func parseHeader(b []byte, k Kind) (uint32, error) {
	if len(b) < headerSize {
		return 0, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if string(b[:4]) != k.Magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	v := binary.LittleEndian.Uint32(b[4:headerSize])
	if v == 0 {
		return 0, fmt.Errorf("%w: version 0", ErrCorrupt)
	}
	if v > k.Version {
		return v, fmt.Errorf("%w: %d (this build reads up to %d)", ErrFutureVersion, v, k.Version)
	}
	return v, nil
}

// frameHeader is the frame of a payload given as consecutive parts: its
// length, then its CRC32 (IEEE).
func frameHeader(parts [][]byte) [recordHeaderSize]byte {
	var h [recordHeaderSize]byte
	n, crc := 0, uint32(0)
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	binary.LittleEndian.PutUint32(h[:4], uint32(n))
	binary.LittleEndian.PutUint32(h[4:], crc)
	return h
}

// appendRecord appends one framed payload, given as consecutive parts, to
// dst, so a record goes to disk in a single write.
func appendRecord(dst []byte, parts ...[]byte) []byte {
	h := frameHeader(parts)
	dst = append(dst, h[:]...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// nextRecord splits the next framed payload off b; the payload aliases b.
// An empty b returns io.EOF; a torn header, truncated payload, implausible
// length, or CRC mismatch returns an error wrapping ErrCorrupt, which
// recovery treats as "the valid prefix ends here".
func nextRecord(b []byte) (payload, rest []byte, err error) {
	if len(b) == 0 {
		return nil, nil, io.EOF
	}
	if len(b) < recordHeaderSize {
		return nil, nil, fmt.Errorf("%w: torn record header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(b[:4])
	if n > maxRecordBytes {
		return nil, nil, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, n)
	}
	if uint64(len(b)-recordHeaderSize) < uint64(n) {
		return nil, nil, fmt.Errorf("%w: truncated record (want %d bytes)", ErrCorrupt, n)
	}
	end := recordHeaderSize + int(n)
	payload = b[recordHeaderSize:end]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return nil, nil, fmt.Errorf("%w: record CRC mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	return payload, b[end:], nil
}
