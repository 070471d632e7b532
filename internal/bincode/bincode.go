// Package bincode is the binary house style of the repository's durable
// records: the transfer store's entries, checkpoint records and runner-
// state segments are all written with it. A record is a sequence of
// fields with no names and no padding:
//
//	varint  a signed integer, zig-zag encoded (encoding/binary.AppendVarint)
//	uvarint an unsigned integer (encoding/binary.AppendUvarint)
//	f64     the IEEE-754 bit pattern as a little-endian uint64
//	str     a uvarint byte length, then the bytes
//	count   a list length plus one, so that zero keeps a nil list apart
//	        from an empty one as a JSON null is kept apart from []
//
// Only finite floats are written or read: encoding/json refused NaN and
// the infinities, and the records this codec replaced were JSON. The
// Decoder is strict: a short field, a length past the end of the record or
// a non-finite float fails it, and every read after the first failure
// returns a zero value. What a record means, and what is left over after
// its last field, is the caller's to say.
//
// The package imports nothing from the module, so every layer can use it.
package bincode

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Finite reports whether f is neither NaN nor infinite.
func Finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// StringView returns b's bytes as a string without copying them. The
// caller must never write to b again. Decoding every string of a record
// as a substring of one view makes the strings cost nothing.
func StringView(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Encoder appends fields to B. A non-finite float sets Err (the first
// failure is kept) and is appended anyway; a caller that finds Err set
// discards what B holds past where it started.
type Encoder struct {
	B   []byte
	Err error
}

// Byte appends one raw byte: a record kind, a tag or flag bits.
func (e *Encoder) Byte(b byte) { e.B = append(e.B, b) }

// Varint appends a signed integer.
func (e *Encoder) Varint(v int64) { e.B = binary.AppendVarint(e.B, v) }

// Uvarint appends an unsigned integer.
func (e *Encoder) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }

// Float appends f's bits, and sets Err if f is not finite.
func (e *Encoder) Float(f float64) {
	if !Finite(f) && e.Err == nil {
		e.Err = fmt.Errorf("bincode: unsupported value %v", f)
	}
	e.B = binary.LittleEndian.AppendUint64(e.B, math.Float64bits(f))
}

// Count appends a list length as count+1, or 0 for a nil list.
func (e *Encoder) Count(n int, isNil bool) {
	if isNil {
		e.B = append(e.B, 0)
		return
	}
	e.Uvarint(uint64(n) + 1)
}

// Str appends s's length, then its bytes exactly as they are.
func (e *Encoder) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.B = append(e.B, s...)
}

// Floats appends a float list: its count, then each float.
func (e *Encoder) Floats(fs []float64) {
	e.Count(len(fs), fs == nil)
	for _, f := range fs {
		e.Float(f)
	}
}

// Strs appends a string list: its count, then each string.
func (e *Encoder) Strs(ss []string) {
	e.Count(len(ss), ss == nil)
	for _, s := range ss {
		e.Str(s)
	}
}

// Decoder reads fields from b. b and s hold the same bytes; decoded
// strings are substrings of s, so they share its memory.
type Decoder struct {
	b   []byte
	s   string
	off int
	ok  bool
}

// NewDecoder returns a Decoder reading b, whose bytes s holds too (for
// example StringView(b), or a substring of a view of the buffer b is cut
// from).
func NewDecoder(b []byte, s string) Decoder { return Decoder{b: b, s: s, ok: true} }

// OK reports whether every read so far succeeded.
func (d *Decoder) OK() bool { return d.ok }

// Fail marks the record malformed: OK turns false and every later read
// returns a zero value.
func (d *Decoder) Fail() { d.ok, d.off = false, len(d.b) }

// Done reports whether every byte has been read.
func (d *Decoder) Done() bool { return d.off == len(d.b) }

// Rest returns the bytes not yet read.
func (d *Decoder) Rest() []byte { return d.b[d.off:] }

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.off >= len(d.b) {
		d.Fail()
		return 0
	}
	d.off++
	return d.b[d.off-1]
}

// Uvarint reads an unsigned integer.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.Fail()
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed integer.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.Fail()
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed integer that must fit an int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Fail()
		return 0
	}
	return int(v)
}

// Float reads a float, which must be finite.
func (d *Decoder) Float() float64 {
	if len(d.b)-d.off < 8 {
		d.Fail()
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	if !Finite(f) {
		d.Fail()
		return 0
	}
	return f
}

// Count reads a list length; each element takes at least min bytes (min
// ≥ 1), which bounds the length, and so what a caller allocates for it,
// by the bytes left. ok is false for a nil list.
func (d *Decoder) Count(min int) (n int, ok bool) {
	c := d.Uvarint()
	if c == 0 {
		return 0, false
	}
	if c-1 > uint64(len(d.b)-d.off)/uint64(min) {
		d.Fail()
		return 0, false
	}
	return int(c - 1), true
}

// Str reads a string.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if n > uint64(len(d.b)-d.off) {
		d.Fail()
		return ""
	}
	s := d.s[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

// Floats reads a float list into a new slice; nil for a nil list.
func (d *Decoder) Floats() []float64 {
	n, ok := d.Count(8)
	if !ok {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = d.Float()
	}
	return fs
}

// Strs reads a string list into a new slice; nil for a nil list.
func (d *Decoder) Strs() []string {
	n, ok := d.Count(1)
	if !ok {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.Str()
	}
	return ss
}
