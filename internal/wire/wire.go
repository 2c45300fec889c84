// Package wire is the framing every binary format of the repository is
// spelled in: the PDFG graph codec (internal/dfg), the PCEN cache-entry
// codec and the journal job payload (internal/service) and the journal
// record payload (internal/journal). The vocabulary is small —
// uvarints, zigzag varints, single bytes, little-endian IEEE-754
// floats, and byte strings as uvarint length + raw bytes — and it has
// one safety rule, enforced here and nowhere else: a decoder never
// trusts a length or a count it has read. Both are bounded by the
// bytes that remain before anything is sliced or allocated, so
// arbitrary (torn, corrupt, adversarial) input costs at most
// O(len(input)) memory and cannot index out of range.
//
// The package depends on the standard library only.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendBytes appends b as uvarint length + raw bytes.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendString appends s as uvarint length + raw bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendFloat appends f as its little-endian IEEE-754 bits.
func AppendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// Reader walks an encoded payload front to back. The first malformed
// field sets a sticky error; every read after it returns a zero value,
// so a decoder reads all its fields unconditionally and asks Done (or
// Err, before it acts on a value) once.
type Reader struct {
	what string
	data []byte
	off  int
	err  error
}

// NewReader returns a reader over data; what ("dfg: binary codec")
// prefixes its errors.
func NewReader(what string, data []byte) *Reader {
	return &Reader{what: what, data: data}
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.what+": "+format, args...)
	}
}

// Header consumes the format's magic string and version byte, failing
// when either differs. An empty magic checks the version byte alone.
func (r *Reader) Header(magic string, version byte) {
	if len(r.data)-r.off < len(magic) || string(r.data[r.off:r.off+len(magic)]) != magic {
		r.fail("bad magic")
		return
	}
	r.off += len(magic)
	if v := r.Byte(); r.err == nil && v != version {
		r.fail("unsupported version %d", v)
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("truncated or oversized uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("truncated or oversized varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail("truncated byte at offset %d", r.off)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// Float reads a little-endian IEEE-754 float.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data)-r.off < 8 {
		r.fail("truncated float at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// Bytes reads a uvarint length and that many raw bytes, bounding the
// length by what remains. The result aliases the payload.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail("length %d exceeds remaining %d bytes", n, len(r.data)-r.off)
		return nil
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// String is Bytes copied into a string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads a uvarint element count and bounds it by the bytes that
// remain: every element of the section costs at least min bytes on the
// wire, so a count that could not possibly fit is rejected before any
// allocation (fuzzed inputs routinely claim 2^60 nodes).
func (r *Reader) Count(what string, min int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.data)-r.off)/uint64(min) {
		r.fail("%s count %d cannot fit in %d remaining bytes", what, v, len(r.data)-r.off)
		return 0
	}
	return int(v)
}

// Err returns the first read error, for a decoder that must not act on
// a zero value (index with it, range-check it) after a failed read.
func (r *Reader) Err() error { return r.err }

// Done ends decoding: it returns the first read error, or an error
// when bytes remain after the last field.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.data) {
		r.fail("%d trailing bytes", len(r.data)-r.off)
	}
	return r.err
}
