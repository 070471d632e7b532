package bincode

import (
	"math"
	"reflect"
	"testing"
)

// TestRoundTrip: every field kind reads back as written, lists keep nil
// apart from empty, strings keep bytes that are not UTF-8, and the
// decoder ends exactly at the end.
func TestRoundTrip(t *testing.T) {
	var e Encoder
	e.Byte(7)
	e.Varint(-300)
	e.Uvarint(1 << 40)
	e.Float(math.Copysign(0, -1))
	e.Float(math.MaxFloat64)
	e.Str("k\xff")
	e.Floats(nil)
	e.Floats([]float64{})
	e.Floats([]float64{1.5, -2})
	e.Strs(nil)
	e.Strs([]string{})
	e.Strs([]string{"", "a"})
	if e.Err != nil {
		t.Fatal(e.Err)
	}
	d := NewDecoder(e.B, StringView(e.B))
	got := []any{d.Byte(), d.Int(), d.Uvarint(), math.Float64bits(d.Float()), d.Float(), d.Str(),
		d.Floats(), d.Floats(), d.Floats(), d.Strs(), d.Strs(), d.Strs()}
	want := []any{byte(7), -300, uint64(1 << 40), math.Float64bits(math.Copysign(0, -1)), math.MaxFloat64, "k\xff",
		[]float64(nil), []float64{}, []float64{1.5, -2}, []string(nil), []string{}, []string{"", "a"}}
	if !d.OK() || !d.Done() || !reflect.DeepEqual(got, want) {
		t.Fatalf("ok %v done %v\ngot  %#v\nwant %#v", d.OK(), d.Done(), got, want)
	}
}

// TestEncoderRefusesNonFinite: a NaN or an infinity sets Err, and the
// first failure is the one kept.
func TestEncoderRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var e Encoder
		e.Float(1)
		e.Floats([]float64{2, f})
		first := e.Err
		e.Float(math.NaN())
		if first == nil || e.Err != first {
			t.Fatalf("%v: Err %v, then %v", f, first, e.Err)
		}
	}
}

// TestDecoderFailsClosed: a short field, a length past the end or a
// non-finite float fails the decoder, and every read after the failure
// returns a zero value.
func TestDecoderFailsClosed(t *testing.T) {
	nan := Encoder{}
	nan.B = append(nan.B, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f) // a NaN's bits
	long := Encoder{}
	long.Uvarint(5)
	long.B = append(long.B, 'a')
	count := Encoder{}
	count.Count(3, false)
	count.B = append(count.B, 0, 0, 0, 0, 0, 0, 0, 0)
	for name, tc := range map[string]struct {
		b    []byte
		read func(d *Decoder)
	}{
		"short float":      {[]byte{1, 2, 3}, func(d *Decoder) { d.Float() }},
		"non-finite float": {nan.B, func(d *Decoder) { d.Float() }},
		"string past end":  {long.B, func(d *Decoder) { d.Str() }},
		"count past end":   {count.B, func(d *Decoder) { d.Floats() }},
		"torn varint":      {[]byte{0x80}, func(d *Decoder) { d.Varint() }},
		"empty byte":       {nil, func(d *Decoder) { d.Byte() }},
	} {
		d := NewDecoder(tc.b, string(tc.b))
		tc.read(&d)
		if d.OK() || !d.Done() {
			t.Errorf("%s: ok %v done %v", name, d.OK(), d.Done())
		}
		if d.Byte() != 0 || d.Str() != "" || d.Floats() != nil {
			t.Errorf("%s: a read after the failure returned a value", name)
		}
	}
}
