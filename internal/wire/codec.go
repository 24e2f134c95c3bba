package wire

import (
	"encoding/binary"
	"errors"
)

// ErrShortBuffer is returned when decoding runs past the end of input.
var ErrShortBuffer = errors.New("wire: short buffer")

// MaxCount is the largest element count a 16-bit count can carry. Count16
// clamps to it, and a producer that must not lose elements (a switch
// reporting its flow table) refuses to hold a longer list.
const MaxCount = 0xffff

// Writer is an append-only big-endian encoder: the one stream codec behind
// every binary format in the system (client bodies, OpenFlow messages, the
// subscription log, the process trunk).
type Writer struct {
	buf []byte
}

// NewWriter returns a writer that appends to buf.
func NewWriter(buf []byte) Writer { return Writer{buf: buf} }

// Bytes returns the encoded bytes.
func (w *Writer) Bytes() []byte { return w.buf }

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Bool writes 1 for true and 0 for false.
func (w *Writer) Bool(b bool) {
	if b {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Raw appends b with no length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// BytesN writes a 16-bit length prefix followed by the bytes.
func (w *Writer) BytesN(b []byte) {
	if len(b) > MaxCount {
		b = b[:MaxCount]
	}
	w.U16(uint16(len(b)))
	w.buf = append(w.buf, b...)
}

// Bytes32 writes a 32-bit length prefix followed by the bytes — the framing
// of envelope bodies, batch items, OpenFlow payloads and log records, which
// routinely exceed 64 KiB.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Str writes a length-prefixed UTF-8 string.
func (w *Writer) Str(s string) { w.BytesN([]byte(s)) }

// Count16 writes a clamped 16-bit element count and returns the number of
// elements the caller must then actually encode. Writing len() unclamped
// while encoding every element would desynchronize count and content for
// inputs past 65535 — the decoder would misparse the remainder as other
// fields.
func (w *Writer) Count16(n int) int {
	if n > MaxCount {
		n = MaxCount
	}
	w.U16(uint16(n))
	return n
}

// Constraints writes a field-constraint list: the one encoding of a
// query's, a subscription's and a stored record's constraints.
func (w *Writer) Constraints(cs []FieldConstraint) {
	n := w.Count16(len(cs))
	for _, c := range cs[:n] {
		w.U8(uint8(c.Field))
		w.U64(c.Value)
		w.U64(c.Mask)
	}
}

// Reader is a big-endian decoder with sticky error handling: after the
// first read past the end every read returns zero and Err reports
// ErrShortBuffer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over data.
func NewReader(data []byte) Reader { return Reader{buf: data} }

// Err reports the first decode error.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Rest consumes and returns the unread bytes, uncopied: the payload a
// fixed header frames.
func (r *Reader) Rest() []byte {
	rest := r.buf[r.off:]
	r.off = len(r.buf)
	return rest
}

func (r *Reader) fail() { r.err = ErrShortBuffer }

func (r *Reader) U8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *Reader) U16() uint16 {
	if r.err != nil || r.off+2 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// Bool reads one byte; only 1 is true.
func (r *Reader) Bool() bool { return r.U8() == 1 }

func (r *Reader) BytesN() []byte { return r.take(int(r.U16())) }

func (r *Reader) Bytes32() []byte { return r.take(int(r.U32())) }

// take copies out the next n bytes.
func (r *Reader) take(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.buf) || r.off+n < r.off {
		r.fail()
		return nil
	}
	out := append([]byte(nil), r.buf[r.off:r.off+n]...)
	r.off += n
	return out
}

func (r *Reader) Str() string { return string(r.BytesN()) }

// Constraints reads a list written by Writer.Constraints (nil when empty).
func (r *Reader) Constraints() []FieldConstraint {
	n := int(r.U16())
	var cs []FieldConstraint
	for i := 0; i < n && r.err == nil; i++ {
		cs = append(cs, FieldConstraint{Field: Field(r.U8()), Value: r.U64(), Mask: r.U64()})
	}
	return cs
}
