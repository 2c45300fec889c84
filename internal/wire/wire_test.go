package wire

import (
	"encoding/binary"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	buf := []byte("MAGC\x02")
	buf = AppendString(buf, "name")
	buf = AppendBytes(buf, []byte{9, 8})
	buf = AppendFloat(buf, 0.75)
	buf = binary.AppendVarint(buf, -5)
	buf = binary.AppendUvarint(buf, 2) // a count of two one-byte elements
	buf = append(buf, 1, 0)

	r := NewReader("t", buf)
	r.Header("MAGC", 2)
	if s := r.String(); s != "name" {
		t.Fatalf("String = %q", s)
	}
	if b := r.Bytes(); len(b) != 2 || b[0] != 9 || b[1] != 8 {
		t.Fatalf("Bytes = %v", b)
	}
	if f := r.Float(); f != 0.75 {
		t.Fatalf("Float = %v", f)
	}
	if v := r.Varint(); v != -5 {
		t.Fatalf("Varint = %d", v)
	}
	if n := r.Count("elem", 1); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if r.Byte() != 1 || r.Byte() != 0 {
		t.Fatal("Byte")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// The one safety rule: lengths and counts are bounded by the bytes
// that remain, the first failure sticks, and later reads return zeros.
func TestMalformedInput(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<60)
	for _, tc := range []struct {
		name string
		data []byte
		read func(r *Reader)
		want string
	}{
		{"length past the end", append(huge, 'x'), func(r *Reader) { r.Bytes() }, "exceeds remaining"},
		{"count past the end", append(huge, 'x'), func(r *Reader) { r.Count("node", 1) }, "node count"},
		{"count of wide elements", []byte{2, 0, 0, 0}, func(r *Reader) { r.Count("edge", 3) }, "edge count"},
		{"truncated uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "uvarint"},
		{"truncated varint", []byte{0x80}, func(r *Reader) { r.Varint() }, "varint"},
		{"truncated float", []byte{1, 2, 3}, func(r *Reader) { r.Float() }, "float"},
		{"truncated byte", nil, func(r *Reader) { r.Byte() }, "byte"},
		{"bad magic", []byte("MAGX\x01"), func(r *Reader) { r.Header("MAGC", 1) }, "bad magic"},
		{"short magic", []byte("MA"), func(r *Reader) { r.Header("MAGC", 1) }, "bad magic"},
		{"bad version", []byte("MAGC\x07"), func(r *Reader) { r.Header("MAGC", 1) }, "unsupported version 7"},
		{"trailing bytes", []byte{1, 2}, func(r *Reader) { r.Byte() }, "1 trailing bytes"},
	} {
		r := NewReader("t", tc.data)
		tc.read(r)
		first := r.Err()
		if first != nil && (r.Uvarint() != 0 || r.Bytes() != nil || r.Byte() != 0) {
			t.Errorf("%s: a read after the failure returned a value", tc.name)
		}
		err := r.Done()
		if err == nil || !strings.HasPrefix(err.Error(), "t: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Done = %v, want an error naming %q", tc.name, err, tc.want)
		}
		if first != nil && err != first {
			t.Errorf("%s: the first error %v was replaced by %v", tc.name, first, err)
		}
	}
}
