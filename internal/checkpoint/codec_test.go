package checkpoint

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/runner"
)

// filler sets every exported field it reaches to a value no other field
// holds: strings (each ending in a byte that is not UTF-8) and numbers
// count up, and bools take a bit of the count. Lists take three shapes in
// turn — two elements, empty, nil — from an offset, so that filling with
// offsets 0, 1 and 2 gives every list field every shape. A field of a kind
// the filler does not know fails the test, as a field the codecs drop
// does: a new field needs a codec change.
type filler struct {
	t      *testing.T
	offset int
	n      int // values handed out
	lists  int // lists shaped
}

func (f *filler) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		f.n++
		v.SetString(fmt.Sprintf("s%d\xff", f.n))
	case reflect.Int, reflect.Int64:
		f.n++
		v.SetInt(int64(f.n))
	case reflect.Float64:
		f.n++
		v.SetFloat(float64(f.n) + 0.25)
	case reflect.Bool:
		f.n++
		v.SetBool((f.n>>f.offset)&1 == 1)
	case reflect.Slice:
		f.lists++
		switch (f.lists + f.offset) % 3 {
		case 0:
			l := reflect.MakeSlice(v.Type(), 2, 2)
			f.fill(l.Index(0))
			f.fill(l.Index(1))
			v.Set(l)
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.SetZero()
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	default:
		f.t.Fatalf("no filler for a field of type %s", v.Type())
	}
}

// filledSnapshot is a snapshot whose meta, baseline, three trials and
// three epochs are filled with offset's shapes, and whose second trial's
// measurement carries the trial's key, which the codec writes once.
func filledSnapshot(t *testing.T, offset int) *Snapshot {
	f := &filler{t: t, offset: offset}
	s := &Snapshot{Trials: make([]TrialRecord, 3), Epochs: make([]EpochRecord, 3),
		RunnerState: []byte("opaque state")}
	f.fill(reflect.ValueOf(&s.Meta).Elem())
	f.fill(reflect.ValueOf(&s.Baseline).Elem())
	for i := range s.Trials {
		f.fill(reflect.ValueOf(&s.Trials[i]).Elem())
	}
	for i := range s.Epochs {
		f.fill(reflect.ValueOf(&s.Epochs[i]).Elem())
	}
	s.Trial, s.Elapsed, s.BestKey, s.BestScore = 3, 99.5, "best\xfe", 7.25
	s.Trials[1].M.Key = s.Trials[1].Key
	return s
}

// TestCodecsDropNoField: a snapshot whose every field holds a distinct
// value — lists nil, empty and full, strings with invalid UTF-8 — comes
// back from a version 5 base, from a base plus a delta, and (for its
// measurements) from a runner-state segment exactly as it went in.
func TestCodecsDropNoField(t *testing.T) {
	for offset := range 3 {
		t.Run(fmt.Sprint("offset ", offset), func(t *testing.T) {
			want := filledSnapshot(t, offset)
			got := mustDecode(t, encoded(t, want))
			got.read = fileRead{}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("base round trip:\ngot  %+v\nwant %+v", got, want)
			}

			prev := *want
			prev.Trials, prev.Epochs = want.Trials[:1:1], want.Epochs[:1:1]
			prev.RunnerState = want.RunnerState[:6:6]
			got = mustDecode(t, keeperImage(t, &prev, want))
			got.read = fileRead{}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("base+delta round trip:\ngot  %+v\nwant %+v", got, want)
			}

			var st runner.State
			ms := map[string]runner.Measurement{"": want.Baseline}
			for _, tr := range want.Trials {
				ms[tr.Key] = tr.M
			}
			for k, m := range ms {
				st.Settle(k, 0, &m)
			}
			stream, err := st.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			segs, err := runner.DecodeState(stream)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) != 1 || !reflect.DeepEqual(segs[0].Cache, ms) {
				t.Fatalf("state round trip:\ngot  %+v\nwant %+v", segs, ms)
			}
		})
	}
}

// TestCodecsRefuseNonFinite: a NaN or an infinity in any float field of a
// snapshot fails its base and delta records, as encoding/json failed on
// them, and in a measurement fails the runner state's segment, leaving
// the stream as it was.
func TestCodecsRefuseNonFinite(t *testing.T) {
	s := filledSnapshot(t, 0)
	prev := *s
	prev.Trials, prev.Epochs, prev.RunnerState = nil, nil, nil
	// floats collects the float fields under v, lists included.
	var floats func(v reflect.Value) []reflect.Value
	floats = func(v reflect.Value) (out []reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			out = append(out, v)
		case reflect.Slice:
			for i := range v.Len() {
				out = append(out, floats(v.Index(i))...)
			}
		case reflect.Struct:
			for i := range v.NumField() {
				if v.Type().Field(i).IsExported() {
					out = append(out, floats(v.Field(i))...)
				}
			}
		}
		return out
	}
	of := func(p any) []reflect.Value { return floats(reflect.ValueOf(p).Elem()) }
	// A delta holds everything but the meta and the baseline.
	inDelta := slices.Concat(of(&s.Elapsed), of(&s.BestScore), of(&s.Trials), of(&s.Epochs))
	all := slices.Concat(of(&s.Meta), of(&s.Baseline), inDelta)
	for i, v := range all {
		old := v.Float()
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			v.SetFloat(bad)
			if _, err := s.encodeBase(); err == nil {
				t.Errorf("float %d = %v: base encoded", i, bad)
			}
			if _, err := encodeDelta(&prev, s); err == nil && i >= len(all)-len(inDelta) {
				t.Errorf("float %d = %v: delta encoded", i, bad)
			}
		}
		v.SetFloat(old)
	}
	if _, err := s.encodeBase(); err != nil {
		t.Fatal(err)
	}

	var st runner.State
	good := s.Trials[0].M
	st.Settle("good", 0, &good)
	first, err := st.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Mean = math.NaN()
	st.Settle("bad", 0, &bad)
	if _, err := st.SnapshotState(); err == nil {
		t.Fatal("a NaN measurement snapshotted")
	}
	bad.Mean = 1
	st.Settle("bad", 0, &bad)
	next, err := st.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if string(next[:len(first)]) != string(first) {
		t.Fatal("a failed snapshot changed the stream")
	}
}
