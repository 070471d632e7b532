package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

// encodeV1 writes s the way version 1 builds did: one framed JSON record
// holding the whole snapshot, runner state included.
func encodeV1(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	payload, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return appendRecord(Kind{Magic: magic, Version: 1}.header(), payload)
}

// growingSnapshots is a session's checkpoints at rounds: each one extends
// the last by one trial and one runner-state segment, and round 2 opens
// an epoch.
func growingSnapshots(rounds int) []*Snapshot {
	var out []*Snapshot
	var trials []TrialRecord
	var epochs []EpochRecord
	state := []byte(`{"elapsed":0}`)
	for r := 1; r <= rounds; r++ {
		key := fmt.Sprintf("-Xmx%dm", 256*r)
		trials = append(trials, TrialRecord{Seq: r - 1, Key: key, M: runner.Measurement{
			Key: key, Walls: []float64{20 - float64(r)/3}, Mean: 20 - float64(r)/3, CostSeconds: 21, Attempts: 1,
		}})
		if r == 2 {
			epochs = append(epochs, EpochRecord{Epoch: 1, Phase: 1, Trial: 2, Priors: []PriorRecord{{Key: key, Norm: 0.9}}})
		}
		state = append(state, fmt.Sprintf(`{"elapsed":%d,"reps":{%q:1}}`, 21*r, key)...)
		out = append(out, &Snapshot{
			Meta:        sampleSnapshot().Meta,
			Trial:       r,
			Elapsed:     float64(21 * r),
			BestKey:     key,
			BestScore:   20 - float64(r)/3,
			Baseline:    fuzzBaseline(),
			Trials:      trials[:r:r],
			Epochs:      epochs[:len(epochs):len(epochs)],
			RunnerState: state[:len(state):len(state)],
		})
	}
	return out
}

// keeperImage is the file a Keeper leaves after writing snaps in order: a
// base for the first and one delta per later snapshot, under this build's
// header.
func keeperImage(t testing.TB, snaps ...*Snapshot) []byte {
	t.Helper()
	img := encoded(t, snaps[0])
	for i := 1; i < len(snaps); i++ {
		img = append(img, deltaRecord(t, snaps[i-1], snaps[i])...)
	}
	return img
}

// legacyImage is the file a version 2 to 4 build's Keeper left after
// writing snaps in order: the same records with a JSON part in place of
// the binary fields, under that version's header.
func legacyImage(t testing.TB, version uint32, snaps ...*Snapshot) []byte {
	t.Helper()
	img := Kind{Magic: magic, Version: version}.header()
	head := *snaps[0]
	head.RunnerState = nil
	img = appendRecord(img, legacyRecord(t, recordBase, &head, snaps[0].RunnerState)...)
	for i := 1; i < len(snaps); i++ {
		prev, s := snaps[i-1], snaps[i]
		img = appendRecord(img, legacyRecord(t, recordDelta, &delta{
			From:      len(prev.Trials),
			Trial:     s.Trial,
			Elapsed:   s.Elapsed,
			BestKey:   s.BestKey,
			BestScore: s.BestScore,
			Trials:    s.Trials[len(prev.Trials):],
			Epochs:    s.Epochs[len(prev.Epochs):],
		}, s.RunnerState[len(prev.RunnerState):])...)
	}
	return img
}

// legacyRecord is a version 2 to 4 payload, as parts: the kind byte and
// the JSON part's length, the JSON encoding of v, then the runner state.
func legacyRecord(t testing.TB, kind byte, v any, state []byte) [][]byte {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{binary.AppendUvarint([]byte{kind}, uint64(len(js))), js, state}
}

// imageAt is keeperImage at this build's version and legacyImage at an
// older one.
func imageAt(t testing.TB, version uint32, snaps ...*Snapshot) []byte {
	t.Helper()
	if version == Version {
		return keeperImage(t, snaps...)
	}
	return legacyImage(t, version, snaps...)
}

// encoded is a snapshot's canonical bytes, for equality checks: the file a
// base write of s leaves, the header and one base record.
func encoded(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	parts, err := s.encodeBase()
	if err != nil {
		t.Fatal(err)
	}
	return appendRecord(snapshotKind.header(), parts...)
}

// deltaRecord is the framed delta record prev → s.
func deltaRecord(t testing.TB, prev, s *Snapshot) []byte {
	t.Helper()
	parts, err := encodeDelta(prev, s)
	if err != nil {
		t.Fatal(err)
	}
	return appendRecord(nil, parts...)
}

func mustDecode(t testing.TB, data []byte) *Snapshot {
	t.Helper()
	s, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDecodeFoldsDeltas(t *testing.T) {
	snaps := growingSnapshots(4)
	img := keeperImage(t, snaps...)
	if v := binary.LittleEndian.Uint32(img[4:8]); v != Version {
		t.Fatalf("header version %d, want %d", v, Version)
	}
	want := encoded(t, snaps[3])
	if got := encoded(t, mustDecode(t, img)); !bytes.Equal(got, want) {
		t.Fatalf("base+deltas decode to\n%q\nwant\n%q", got, want)
	}
	// The JSON records of versions 2 to 4 fold the same.
	for v := uint32(2); v < Version; v++ {
		if got := encoded(t, mustDecode(t, legacyImage(t, v, snaps...))); !bytes.Equal(got, want) {
			t.Errorf("a version %d file decodes differently", v)
		}
	}
	// A version 1 file (whose runner state was one JSON object) reads the
	// same as a base.
	v1 := *snaps[3]
	v1.RunnerState = []byte(`{"elapsed":84}`)
	if got, want := encoded(t, mustDecode(t, encodeV1(t, &v1))), encoded(t, &v1); !bytes.Equal(got, want) {
		t.Fatal("version 1 file decodes differently")
	}
}

func TestDecodeSalvagesTornTail(t *testing.T) {
	snaps := growingSnapshots(3)
	want := encoded(t, snaps[1])
	for v := uint32(2); v <= Version; v++ {
		full := imageAt(t, v, snaps...)
		two := imageAt(t, v, snaps[:2]...)
		badCRC := append([]byte(nil), full...)
		badCRC[len(badCRC)-1] ^= 0xff
		for name, data := range map[string][]byte{
			"torn delta header":  full[:len(two)+3],
			"truncated delta":    full[:len(full)-1],
			"bad CRC delta":      badCRC,
			"implausible length": append(append([]byte(nil), two...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0),
		} {
			if got := encoded(t, mustDecode(t, data)); !bytes.Equal(got, want) {
				t.Errorf("version %d, %s: salvaged to\n%q\nwant the last complete round", v, name, got)
			}
		}
		if got := encoded(t, mustDecode(t, append(append([]byte(nil), full...), 'x'))); !bytes.Equal(got, encoded(t, snaps[2])) {
			t.Errorf("version %d: a torn byte after the last delta lost a complete round", v)
		}
	}
}

func TestDecodeRejectsBadV2(t *testing.T) {
	snaps := growingSnapshots(3)
	base := keeperImage(t, snaps[0])
	delta := deltaRecord(t, snaps[0], snaps[1])
	gap := deltaRecord(t, snaps[1], snaps[2]) // continues trial 2 onto a 1-trial log
	v4 := legacyImage(t, 4, snaps[0])
	v4gap := legacyImage(t, 4, snaps[1], snaps[2])[len(legacyImage(t, 4, snaps[1])):]
	withState := *snaps[0]
	withState.RunnerState = []byte(`{"elapsed":21}`)
	stateInJSON, err := json.Marshal(&withState)
	if err != nil {
		t.Fatal(err)
	}
	inline := appendRecord(Kind{Magic: magic, Version: 4}.header(),
		binary.AppendUvarint([]byte{recordBase}, uint64(len(stateInJSON))), stateInJSON)
	header := func(v uint32) []byte { return binary.LittleEndian.AppendUint32([]byte(magic), v) }
	// The base record cut short inside its fields, with a frame that fits.
	short, _ := snaps[0].encodeBase()
	cut := appendRecord(header(Version), short[0][:len(short[0])-9])

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"delta without base", append(append([]byte(nil), base[:headerSize]...), delta...), ErrCorrupt},
		{"delta gap", append(append([]byte(nil), base...), gap...), ErrCorrupt},
		{"base frame as delta", append(append([]byte(nil), base...), base[headerSize:]...), ErrCorrupt},
		{"base cut inside its fields", cut, ErrCorrupt},
		{"v4 delta gap", append(append([]byte(nil), v4...), v4gap...), ErrCorrupt},
		{"v4 base frame as delta", append(append([]byte(nil), v4...), v4[headerSize:]...), ErrCorrupt},
		{"runner state inside base JSON", inline, ErrCorrupt},
		// Version 5 records are binary: JSON ones under its header are
		// corrupt, not a format to guess at.
		{"version 5", append(header(5), v4[headerSize:]...), ErrCorrupt},
		{"version 6", append(header(Version+1), base[headerSize:]...), ErrFutureVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decode(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("decode = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestKeeperAppendsDeltas: the first write is a base, every later one an
// appended delta, and the bytes written are the file's size.
func TestKeeperAppendsDeltas(t *testing.T) {
	reg := telemetry.New()
	path := filepath.Join(t.TempDir(), "s.ckpt")
	k := NewKeeper(path, 1, reg)
	snaps := growingSnapshots(5)
	for _, s := range snaps {
		k.Write(s)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, keeperImage(t, snaps...)) {
		t.Fatal("keeper file is not one base plus one delta per write")
	}
	if got := reg.Counter("checkpoint_bytes_written_total").Value(); got != uint64(len(data)) {
		t.Fatalf("checkpoint_bytes_written_total = %d, file is %d bytes", got, len(data))
	}
	if got := reg.Counter("checkpoint_writes_total").Value(); got != uint64(len(snaps)) {
		t.Fatalf("checkpoint_writes_total = %d, want %d", got, len(snaps))
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded(t, got), encoded(t, snaps[len(snaps)-1])) {
		t.Fatal("loaded snapshot differs from the last one written")
	}
}

// settle waits until k's writer has written everything queued, without
// releasing the file as Close does.
func settle(k *Keeper) { k.wg.Wait() }

// TestKeeperWritesBaseWhenDeltaCannot: a snapshot whose runner state does
// not extend the one before it, and the write after a failed one, replace
// the file with a base; a snapshot never handed over leaves its trials to
// the next delta.
func TestKeeperWritesBaseWhenDeltaCannot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ckpt")
	k := NewKeeper(path, 1, nil)
	snaps := growingSnapshots(6)
	k.Write(snaps[0])
	k.Write(snaps[2]) // snaps[1] never handed over: its trial rides in this delta
	settle(k)
	onDisk := func() []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(onDisk(), keeperImage(t, snaps[0], snaps[2])) {
		t.Fatal("a later snapshot did not carry the trials before it")
	}

	// A restored runner's stream starts over: not a prefix of the file's.
	rebase := func(s *Snapshot) *Snapshot {
		c := *s
		c.RunnerState = append([]byte(`{"elapsed":63}`), s.RunnerState[len(snaps[2].RunnerState):]...)
		return &c
	}
	r3, r4, r5 := rebase(snaps[3]), rebase(snaps[4]), rebase(snaps[5])
	k.Write(r3)
	settle(k)
	if !bytes.Equal(onDisk(), keeperImage(t, r3)) {
		t.Fatal("non-extending runner state was appended instead of rebased")
	}

	k.j.f.Close() // the next append fails
	k.Write(r4)
	settle(k)
	k.Write(r5)
	if err := k.Close(); err == nil {
		t.Fatal("failed append not reported")
	}
	if err := k.Close(); err == nil {
		t.Fatal("Close forgot the failed write")
	}
	if !bytes.Equal(onDisk(), keeperImage(t, r5)) {
		t.Fatal("write after a failed one is not a base")
	}
}

// TestKeeperResumeContinuesFile: a Keeper resuming a snapshot Load read
// appends to that file, after cutting a torn tail back to what Load
// decoded; a file that changed since the load, a version 1 file and a
// file at another path get a base instead.
func TestKeeperResumeContinuesFile(t *testing.T) {
	snaps := growingSnapshots(4)
	two := keeperImage(t, snaps[:2]...)
	whole := keeperImage(t, snaps...)
	rebased := keeperImage(t, snaps[2:]...)
	v1 := *snaps[1]
	v1.RunnerState = []byte(`{"elapsed":42}`) // one object, as version 1 held it
	for _, tc := range []struct {
		name   string
		file   []byte // what Load reads
		after  []byte // appended to the file after the load
		other  bool   // the Keeper writes another path
		want   []byte
		create bool // the file ends up a new inode
	}{
		{name: "appends", file: two, want: whole},
		{name: "cuts a torn tail", file: whole[:len(two)+5], want: whole},
		{name: "file changed since the load", file: two, after: []byte("x"), want: rebased, create: true},
		{name: "version 1", file: encodeV1(t, &v1), want: rebased, create: true},
		{name: "version 4", file: legacyImage(t, 4, snaps[:2]...), want: rebased, create: true},
		{name: "another path", file: two, other: true, want: rebased, create: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "s.ckpt")
			if err := os.WriteFile(path, tc.file, 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(tc.after) > 0 {
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				f.Write(tc.after)
				f.Close()
			}
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			dst := path
			if tc.other {
				dst = filepath.Join(dir, "other.ckpt")
			}
			k := NewKeeper(dst, 1, nil)
			k.Resume(loaded)
			k.Write(snaps[1]) // holds no trial past the resumed one
			k.Write(snaps[2])
			k.Write(snaps[3])
			if err := k.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(dst)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.want) {
				t.Fatalf("resumed keeper left %d bytes, want %d", len(got), len(tc.want))
			}
			after, err := os.Stat(dst)
			if err != nil {
				t.Fatal(err)
			}
			if appended := os.SameFile(before, after); appended == tc.create {
				t.Fatalf("file replaced = %v, want %v", !appended, tc.create)
			}
		})
	}
}

// TestJournalStaysVersion1: journals keep writing version 1, and a version
// 2 journal header is a future version, not a checkpoint to read.
func TestJournalStaysVersion1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, _, err := OpenJournal(path, JournalKind, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != 1 {
		t.Fatalf("journal header version %d, want 1", v)
	}
	binary.LittleEndian.PutUint32(data[4:8], Version)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path, JournalKind, nil); !errors.Is(err, ErrFutureVersion) {
		t.Fatalf("OpenJournal(version %d) = %v, want ErrFutureVersion", Version, err)
	}
}
