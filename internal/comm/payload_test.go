package comm

import (
	"reflect"
	"testing"
)

// TestBuiltinPayloadRoundtrip pins the built-in encodings: every supported
// shape survives marshal → unmarshal exactly, including nesting.
func TestBuiltinPayloadRoundtrip(t *testing.T) {
	cases := []any{
		3.14159,
		-7,
		0,
		[]float32{},
		[]float32{1.5, -2.25, 3e-38},
		[]any{1, 2.5, []float32{9}},
		map[int]any{-3: 1, 7: []float32{42}},
	}
	for _, v := range cases {
		buf := MarshalPayload(v)
		got, err := UnmarshalPayload(buf)
		if err != nil {
			t.Fatalf("%#v: unmarshal failed: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("roundtrip changed payload: sent %#v, got %#v", v, got)
		}
	}
}

// TestPayloadDecodedValuesDoNotAliasBuffer: byte-level backends recycle
// receive buffers after decoding, so decoded vectors must be copies.
func TestPayloadDecodedValuesDoNotAliasBuffer(t *testing.T) {
	buf := MarshalPayload([]float32{10, 20, 30})
	got, err := UnmarshalPayload(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xFF
	}
	if b := got.([]float32); b[0] != 10 || b[1] != 20 || b[2] != 30 {
		t.Fatalf("decoded values alias the receive buffer: %v", b)
	}
}

// TestPayloadRejectsCorruption: truncations and bad counts error instead
// of panicking or over-allocating.
func TestPayloadRejectsCorruption(t *testing.T) {
	good := MarshalPayload([]any{[]float32{1, 2, 3}, 7})
	for cut := 0; cut < len(good); cut++ {
		if _, err := UnmarshalPayload(good[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(good))
		}
	}
	if _, err := UnmarshalPayload([]byte{0x7F}); err == nil {
		t.Fatal("unknown tag decoded without error")
	}
	if _, err := UnmarshalPayload(append(MarshalPayload(1), 0)); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
}
