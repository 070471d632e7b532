package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// Journal is an append-only log of framed records in a file of one Kind:
// the farm's and the fleet's write-ahead journals, the transfer store, and
// a Keeper's session checkpoint are all journals. Appends are fsynced
// before returning, so a record the caller saw accepted survives a crash.
// Rewrite replaces the log atomically once the caller decides its records
// should change: compacted, migrated to the kind's newest version, or cut
// back to the prefix the caller can decode.
//
// A journal counts what it does on its own in the registry it was opened
// with: stale temps swept (journal_stale_temps_removed_total) and a torn
// tail salvaged (journal_salvaged_total) at open, records replayed
// (journal_records_replayed_total) and appended (journal_appends_total).
// What a Rewrite means is the caller's to say, and to count. A caller that
// counts under its own names and keeps what it decoded between opens (the
// transfer store) sweeps with SweepTemps, opens with OpenSweptJournal, and
// reads whether the open salvaged from Salvaged.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	kind     Kind
	version  uint32 // the file's format version
	size     int64  // bytes of valid journal (header + records)
	salvaged bool   // the open cut a torn tail; fixed at open
	kept     int    // records of the known image the file still held; fixed at open
	closed   bool
	buf      []byte // Append's framed record, reused
	img      *Image // the bytes its opens read; nil unless kept (see Image)
	tel      *telemetry.Registry
}

// An Image is the bytes of a journal file that the journal's opens read,
// in file order, and the offset at which each of their records ends. A
// journal opened with OpenSweptJournal keeps one, and keeps it through
// Close. Handed to the next OpenSweptJournal of the file, it lets that
// open read the file in fixed-size chunks, compare them with the image,
// and split only the records past the longest prefix the two share that
// ends on a record boundary. Frames appended since lie past the image, so
// that open splits them as it would another writer's. A Rewrite drops the
// image. Its parts are never written again, since the payloads the opens
// returned alias them.
type Image struct {
	parts [][]byte // the bytes each open read, in file order
	ends  []int64  // the offset at which each record ends
}

// chunkSize is the most an open reads at a time while it compares a file
// with an image; chunks pools the buffer it reads into.
const chunkSize = 64 << 10

var chunks = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// shared returns how many leading bytes the size-byte file f shares with
// the image. An image of no records has nothing worth keeping, so it reads
// nothing.
func (im *Image) shared(f *os.File, size int64) (int64, error) {
	if len(im.ends) == 0 {
		return 0, nil
	}
	buf := chunks.Get().(*[chunkSize]byte)
	defer chunks.Put(buf)
	var off int64
	for _, p := range im.parts {
		for len(p) > 0 && off < size {
			n := int(min(int64(len(p)), chunkSize, size-off))
			m, err := f.ReadAt(buf[:n], off)
			if err != nil && err != io.EOF {
				return 0, fmt.Errorf("read: %w", err)
			}
			if m < n || !bytes.Equal(buf[:m], p[:m]) {
				k := 0
				for k < m && buf[k] == p[k] {
					k++
				}
				return off + int64(k), nil
			}
			off += int64(n)
			p = p[n:]
		}
	}
	return off, nil
}

// Records returns how many records the image holds.
func (im *Image) Records() int { return len(im.ends) }

// records returns how many of the image's records end within its first n
// bytes.
func (im *Image) records(n int64) int {
	return sort.Search(len(im.ends), func(i int) bool { return im.ends[i] > n })
}

// cut keeps the image's first n bytes, which end its first r records.
func (im *Image) cut(n int64, r int) {
	im.ends = im.ends[:r]
	for i, p := range im.parts {
		if n <= int64(len(p)) {
			if n > 0 {
				im.parts[i] = p[:n]
				i++
			}
			clear(im.parts[i:])
			im.parts = im.parts[:i]
			return
		}
		n -= int64(len(p))
	}
}

// OpenJournal opens (or creates) the kind k journal at path and replays
// it, returning the record payloads in append order. The payloads share
// one buffer holding the whole file, which is never written again.
//
// Recovery is deliberately forgiving about the tail and strict about the
// head: a crash mid-append legitimately leaves a torn last record, so a
// corrupt tail is truncated back to the end of the valid prefix and the
// journal reopens for appends — losing only the record that never finished.
// A corrupt header, by contrast, means the file is not a journal of this
// kind at all (or was written by a future version), and replaying a guess
// would resurrect state that never existed; that fails closed, leaving the
// file untouched. A file at an older version opens as it is (see Version);
// migrating its records is the caller's business.
func OpenJournal(path string, k Kind, tel *telemetry.Registry) (*Journal, [][]byte, error) {
	// A crash mid-Rewrite can strand a temp file next to the journal; it
	// was never renamed, so it holds no authoritative state — sweep it.
	if n := SweepTemps(path); n > 0 {
		tel.Counter("journal_stale_temps_removed_total").Add(uint64(n))
	}
	return openJournal(path, k, tel, nil)
}

// OpenSweptJournal is OpenJournal for an owner that has swept path itself
// with SweepTemps, counts under its own names, and keeps what it decodes
// between opens. The journal keeps the Image of the bytes it read. Given
// known, the image a closed journal on path kept (nil for none), the open
// compares the file with it and returns only the payloads of the records
// past the ones the file still holds byte for byte; Kept says how many
// those are. The new journal takes known over.
func OpenSweptJournal(path string, k Kind, known *Image) (*Journal, [][]byte, error) {
	if known == nil {
		known = new(Image)
	}
	return openJournal(path, k, nil, known)
}

// openJournal opens the file at path and replays it, keeping img up to
// date as the journal's image unless img is nil.
func openJournal(path string, k Kind, tel *telemetry.Registry, img *Image) (*Journal, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{f: f, path: path, kind: k, tel: tel, img: img}
	records, err := j.replay()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return j, records, nil
}

// replay checks the file's header and frames, cuts a torn tail, and leaves
// the file positioned after the valid prefix. With an image, it first
// compares the file with it, keeps the image's records up to the end of
// the longest prefix they share, and reads and splits only the bytes past
// them; otherwise it reads the whole file in one read.
func (j *Journal) replay() ([][]byte, error) {
	fi, err := j.f.Stat()
	if err != nil {
		return nil, fmt.Errorf("stat: %w", err)
	}
	var start int64 // where the bytes to split begin: 0, or the end of a kept record
	if j.img != nil {
		same, err := j.img.shared(j.f, fi.Size())
		if err != nil {
			return nil, err
		}
		if j.kept = j.img.records(same); j.kept > 0 {
			start = j.img.ends[j.kept-1]
		}
		j.img.cut(start, j.kept)
	}
	data := make([]byte, fi.Size()-start)
	n, err := j.f.ReadAt(data, start)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("read: %w", err)
	}
	data = data[:n]
	if start == 0 && len(data) == 0 {
		if _, err := j.f.Write(j.kind.header()); err != nil {
			return nil, fmt.Errorf("init header: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return nil, fmt.Errorf("init sync: %w", err)
		}
		j.version, j.size = j.kind.Version, headerSize
		return nil, nil
	}
	head, rest := data, data
	if start > 0 {
		head = j.img.parts[0]
	} else if len(data) >= headerSize {
		rest = data[headerSize:]
	}
	if j.version, err = parseHeader(head, j.kind); err != nil {
		return nil, err
	}

	var records [][]byte
	for {
		payload, next, err := nextRecord(rest)
		if err == io.EOF {
			break
		}
		if err != nil {
			j.salvaged = true
			break
		}
		records = append(records, payload)
		rest = next
		if j.img != nil {
			j.img.ends = append(j.img.ends, start+int64(len(data)-len(rest)))
		}
	}
	valid := data[:len(data)-len(rest)]
	j.size = start + int64(len(valid))
	if j.img != nil && len(valid) > 0 {
		j.img.parts = append(j.img.parts, valid)
	}
	if j.salvaged {
		// Torn tail from a crash mid-append: salvage the valid prefix.
		if err := j.f.Truncate(j.size); err != nil {
			return nil, fmt.Errorf("truncate corrupt tail: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return nil, fmt.Errorf("sync after truncate: %w", err)
		}
		j.tel.Counter("journal_salvaged_total").Inc()
	}
	if _, err := j.f.Seek(j.size, io.SeekStart); err != nil {
		return nil, fmt.Errorf("seek: %w", err)
	}
	j.tel.Counter("journal_records_replayed_total").Add(uint64(len(records)))
	return records, nil
}

// createJournal atomically replaces the file at path with a kind k file
// holding the given records, each framed from the consecutive parts of its
// payload, and returns a journal appending after them. The parts are
// written as they are, never copied together.
func createJournal(path string, k Kind, records ...[][]byte) (*Journal, error) {
	frames := make([][recordHeaderSize]byte, len(records))
	img := [][]byte{k.header()}
	for i, parts := range records {
		frames[i] = frameHeader(parts)
		img = append(append(img, frames[i][:]), parts...)
	}
	j := &Journal{path: path, kind: k}
	if err := j.replace(img...); err != nil {
		return nil, err
	}
	return j, nil
}

// reopenJournal opens the kind k file at path for appends after its first
// valid bytes, the prefix its caller decoded from a read of size bytes.
// It fails unless the file is still that read's: size bytes long, at the
// kind's newest version. A torn tail past valid is cut off; the next
// append's fsync makes the cut durable with it.
func reopenJournal(path string, k Kind, size, valid int64) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	h := make([]byte, headerSize)
	fi, err := f.Stat()
	if err == nil && fi.Size() != size {
		err = fmt.Errorf("%s: %d bytes, not the %d read", path, fi.Size(), size)
	}
	if err == nil {
		_, err = f.ReadAt(h, 0)
	}
	if err == nil {
		var v uint32
		if v, err = parseHeader(h, k); err == nil && v != k.Version {
			err = fmt.Errorf("%s: version %d, not %d", path, v, k.Version)
		}
	}
	if err == nil {
		err = f.Truncate(valid)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f, path: path, kind: k, version: k.Version, size: valid}, nil
}

// Version returns the file's format version: the one it was opened at, or
// the kind's newest once a Rewrite has replaced it.
func (j *Journal) Version() uint32 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.version
}

// Salvaged reports whether the open cut a torn tail off the file.
func (j *Journal) Salvaged() bool { return j.salvaged }

// Kept reports how many records of the image handed to OpenSweptJournal
// the file still held, byte for byte, when it opened: the records before
// the payloads the open returned.
func (j *Journal) Kept() int { return j.kept }

// Image returns the image of the bytes the journal's opens read, also
// after Close, or nil once a Rewrite has dropped it.
func (j *Journal) Image() *Image {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.img
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

// Append durably writes one record, framed from the consecutive parts of
// its payload in a single write, then fsynced.
func (j *Journal) Append(parts ...[]byte) error {
	return j.appendRecords(parts)
}

// appendRecords durably writes several records, each framed from the
// consecutive parts of its payload, in a single write and one fsync.
func (j *Journal) appendRecords(records ...[][]byte) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	j.buf = j.buf[:0]
	for _, parts := range records {
		j.buf = appendRecord(j.buf, parts...)
	}
	if _, err := j.f.Write(j.buf); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: append sync: %w", err)
	}
	j.size += int64(len(j.buf))
	j.tel.Counter("journal_appends_total").Add(uint64(len(records)))
	return nil
}

// Rewrite atomically replaces the journal's contents with the given record
// payloads at the kind's newest version (see ReplaceFile). A crash at any
// point leaves either the complete old log or the complete new one, never
// a mix. On success the journal continues appending after the last new
// record.
func (j *Journal) Rewrite(payloads [][]byte) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	img := j.kind.header()
	for _, p := range payloads {
		img = appendRecord(img, p)
	}
	return j.replace(img)
}

// replace swaps the file for the concatenation of parts and adopts the new
// file, positioned at its end, for later appends. The superseded file is
// closed only after the swap. The image goes: what its caller decoded
// aliases the bytes of the file it replaced.
func (j *Journal) replace(parts ...[]byte) error {
	f, err := ReplaceFile(j.path, parts...)
	if err != nil {
		return fmt.Errorf("journal: rewrite: %w", err)
	}
	if j.f != nil {
		j.f.Close()
	}
	j.f, j.version, j.size, j.img = f, j.kind.Version, 0, nil
	for _, p := range parts {
		j.size += int64(len(p))
	}
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

// ReplaceFile atomically replaces the file at path with the concatenation
// of parts: they go to a temp file next to it, <path>.compact*, which is
// made mode 0644 (the mode a fresh journal gets, where the temp would keep
// 0600), fsynced, and only then renamed over path. A crash at any point
// leaves either the complete old file or the complete new one; a temp it
// strands is swept by the next OpenJournal of path, or the first write of
// a Keeper on it. It returns the new file, open at its end.
func ReplaceFile(path string, parts ...[]byte) (*os.File, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".compact*")
	if err != nil {
		return nil, err
	}
	err = f.Chmod(0o644)
	for _, p := range parts {
		if err == nil {
			_, err = f.Write(p)
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return f, nil
}

// SweepTemps removes the temps ReplaceFile stranded next to path when a
// crash beat the rename, and returns how many it found. The caller owns
// path, so no temp belongs to a write still in flight. OpenJournal and a
// Keeper's first write sweep on their own; a caller that counts the
// sweep under its own name calls it and then OpenSweptJournal, so the
// count survives an open that then fails.
func SweepTemps(path string) int {
	stale, _ := filepath.Glob(path + ".compact*")
	for _, p := range stale {
		os.Remove(p)
	}
	return len(stale)
}
