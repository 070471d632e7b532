package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// imageKind is the journal kind the image tests write.
var imageKind = Kind{Magic: "IMGT", Version: 2}

// imageRecord is the payload of the image tests' record i.
func imageRecord(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 10+7*i) }

// TestImagedReopenMatchesCold: a journal opened with the image of the one
// that closed on the same file keeps Kept() of the records that journal
// knew, and returns after them exactly the payloads a cold open of the
// same bytes returns, with the same version, size and salvage, leaving the
// same file, also after one more append. The file is changed in between:
// kept as the journal left it, truncated to every record boundary, torn,
// a byte flipped, a record appended by someone else, or a header of an
// older version, a newer version or none. The records appended after an
// open lie past its image: the next open splits them from the file, and
// the one after that, of a file that did not change, keeps every record.
func TestImagedReopenMatchesCold(t *testing.T) {
	base := imageKind.header()
	for i := 0; i < 3; i++ {
		base = appendRecord(base, imageRecord(i))
	}
	older := binaryHeader(imageKind.Magic, 1)
	type change struct {
		name string
		file func(cur []byte) []byte
	}
	cases := []change{
		{"unchanged", func(cur []byte) []byte { return cur }},
		{"torn", func(cur []byte) []byte { return cur[:len(cur)-3] }},
		{"flipped", func(cur []byte) []byte {
			b := bytes.Clone(cur)
			b[len(b)/2] ^= 1
			return b
		}},
		{"foreign append", func(cur []byte) []byte { return appendRecord(bytes.Clone(cur), imageRecord(9)) }},
		{"older version", func(cur []byte) []byte { return append(older, cur[headerSize:]...) }},
		{"newer version", func([]byte) []byte { return binaryHeader(imageKind.Magic, 3) }},
		{"garbage", func([]byte) []byte { return []byte("garbage") }},
		{"empty", func([]byte) []byte { return nil }},
	}
	// The header alone, then the end of each of the five records.
	for i := 0; i <= 5; i++ {
		cases = append(cases, change{"truncated", func(cur []byte) []byte {
			rest := cur[headerSize:]
			for range i {
				_, rest, _ = nextRecord(rest)
			}
			return cur[:len(cur)-len(rest)]
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "j")
			if err := os.WriteFile(path, base, 0o644); err != nil {
				t.Fatal(err)
			}
			j, known, err := OpenSweptJournal(path, imageKind, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 3; i < 5; i++ {
				if err := j.Append(imageRecord(i)); err != nil {
					t.Fatal(err)
				}
				known = append(known, imageRecord(i))
			}
			j.Close()
			cur, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b := c.file(cur)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			cpath := filepath.Join(dir, "cold")
			if err := os.WriteFile(cpath, b, 0o644); err != nil {
				t.Fatal(err)
			}
			cj, want, cerr := OpenSweptJournal(cpath, imageKind, nil)
			rj, got, rerr := OpenSweptJournal(path, imageKind, j.Image())
			if (rerr == nil) != (cerr == nil) || errors.Is(rerr, ErrFutureVersion) != errors.Is(cerr, ErrFutureVersion) {
				t.Fatalf("imaged open: %v; cold open: %v", rerr, cerr)
			}
			if rerr != nil {
				return
			}
			defer cj.Close()
			defer rj.Close()
			if cj.Kept() != 0 {
				t.Fatalf("a cold open kept %d records", cj.Kept())
			}
			got = append(known[:rj.Kept():rj.Kept()], got...)
			if len(got) != len(want) {
				t.Fatalf("imaged open reads %d records (%d kept), cold %d", len(got), rj.Kept(), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d: imaged %q, cold %q", i, got[i], want[i])
				}
			}
			if rj.Version() != cj.Version() || rj.Size() != cj.Size() || rj.Salvaged() != cj.Salvaged() {
				t.Fatalf("version, size, salvaged: imaged %d %d %v, cold %d %d %v",
					rj.Version(), rj.Size(), rj.Salvaged(), cj.Version(), cj.Size(), cj.Salvaged())
			}
			if c.name == "unchanged" && (rj.Kept() != 3 || len(got) != 5) {
				t.Fatalf("unchanged file: kept %d records, want the 3 the open read", rj.Kept())
			}
			sameFiles := func() {
				t.Helper()
				rb, err1 := os.ReadFile(path)
				cb, err2 := os.ReadFile(cpath)
				if err1 != nil || err2 != nil || !bytes.Equal(rb, cb) {
					t.Fatalf("files differ (%v, %v):\nimaged %q\ncold   %q", err1, err2, rb, cb)
				}
			}
			sameFiles()
			if err := rj.Append(imageRecord(5)); err != nil {
				t.Fatal(err)
			}
			if err := cj.Append(imageRecord(5)); err != nil {
				t.Fatal(err)
			}
			sameFiles()

			// The appended record is split from the file once; after
			// that, nothing changed and every record is kept.
			for i, wantRest := range []int{1, 0} {
				rj.Close()
				again, rest, err := OpenSweptJournal(path, imageKind, rj.Image())
				if err != nil {
					t.Fatal(err)
				}
				if again.Kept() != len(want)+i || len(rest) != wantRest || again.Size() != rj.Size() {
					t.Fatalf("reopen %d: kept %d and split %d records, want %d and %d", i, again.Kept(), len(rest), len(want)+i, wantRest)
				}
				rj = again
			}
			rj.Close()
		})
	}
}

// binaryHeader is a journal header with any version.
func binaryHeader(magic string, v uint32) []byte {
	return Kind{Magic: magic, Version: v}.header()
}

// TestJournalImageDropped: a Rewrite leaves the journal without an image,
// since what its caller decoded aliases the file it replaced; a journal
// opened with OpenJournal keeps none at all.
func TestJournalImageDropped(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenSweptJournal(filepath.Join(dir, "rewritten"), imageKind, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Image() == nil {
		t.Fatal("OpenSweptJournal kept no image")
	}
	if err := j.Rewrite([][]byte{imageRecord(0)}); err != nil {
		t.Fatal(err)
	}
	if j.Image() != nil {
		t.Fatal("a Rewrite kept the image")
	}

	plain, _, err := OpenJournal(filepath.Join(dir, "plain"), imageKind, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if plain.Image() != nil {
		t.Fatal("OpenJournal kept an image")
	}
}
