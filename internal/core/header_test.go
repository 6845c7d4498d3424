package core

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{VNI: 0xABCDEF, LBTag: 11, CE: 5, FBValid: true, FBLBTag: 3, FBMetric: 7}
	buf, err := h.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != HeaderLen {
		t.Fatalf("encoded length %d, want %d", len(buf), HeaderLen)
	}
	got, err := DecodeHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip mismatch: got %+v, want %+v", got, h)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	err := quick.Check(func(vni uint32, lbTag, ce, fbTag, fbMetric uint8, fbValid bool) bool {
		h := Header{
			VNI:      vni & 0xFFFFFF,
			LBTag:    lbTag & maxLBTag,
			CE:       ce & maxCE,
			FBValid:  fbValid,
			FBLBTag:  fbTag & maxLBTag,
			FBMetric: fbMetric & maxCE,
		}
		buf, err := h.Encode(nil)
		if err != nil {
			return false
		}
		got, err := DecodeHeader(buf)
		return err == nil && got == h
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHeaderEncodeRejectsOverflow(t *testing.T) {
	cases := []Header{
		{VNI: 1 << 24},
		{LBTag: 16},
		{CE: 8},
		{FBLBTag: 16},
		{FBMetric: 8},
	}
	for i, h := range cases {
		if _, err := h.Encode(nil); err == nil {
			t.Errorf("case %d: overflowing header encoded without error", i)
		}
	}
}

func TestHeaderDecodeRejectsShortBuffer(t *testing.T) {
	if _, err := DecodeHeader(make([]byte, 7)); err == nil {
		t.Fatal("short buffer decoded")
	}
}

func TestHeaderDecodeRequiresIFlag(t *testing.T) {
	buf := make([]byte, HeaderLen)
	if _, err := DecodeHeader(buf); err == nil {
		t.Fatal("header without I flag decoded")
	}
}

func TestHeaderEncodeAppends(t *testing.T) {
	prefix := []byte{0xDE, 0xAD}
	buf, err := Header{VNI: 7}.Encode(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 2+HeaderLen || buf[0] != 0xDE || buf[1] != 0xAD {
		t.Fatalf("Encode did not append: %x", buf)
	}
	if _, err := DecodeHeader(buf[2:]); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderIsValidVXLAN(t *testing.T) {
	// With all CONGA fields zero the header must be a canonical VXLAN
	// header: flags byte 0x08, VNI in bytes 4..6, everything else zero.
	buf, err := Header{VNI: 0x123456}.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x08, 0, 0, 0, 0x12, 0x34, 0x56, 0}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("byte %d = %#02x, want %#02x (buf %x)", i, buf[i], want[i], buf)
		}
	}
}

func TestEncapOverheadMatchesVXLANStack(t *testing.T) {
	// Outer Ethernet 18 + IPv4 20 + UDP 8 + VXLAN 8 = 54.
	if EncapOverhead != 54 {
		t.Fatalf("EncapOverhead = %d, want 54", EncapOverhead)
	}
}

// FuzzHeaderRoundTrip checks the overlay header's bit-packing both ways.
// Fields: a header whose fields fit encodes to 8 bytes that decode back to
// it, with the I flag set and every reserved bit clear; one that overflows
// a field is refused and appends nothing. Bytes: a buffer decodes exactly
// when it holds 8 bytes with the I flag set, and re-encoding what it decodes
// to gives back its field bits — the buffer with the reserved bits cleared.
func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(uint32(0xABCDEF), uint8(11), uint8(5), uint8(3), uint8(7), true, []byte{0x08, 0xB5, 0x3E, 0, 0xAB, 0xCD, 0xEF, 0})
	f.Add(uint32(1<<24), uint8(16), uint8(8), uint8(16), uint8(8), false, []byte{0xF7, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(uint32(0), uint8(0), uint8(0), uint8(0), uint8(0), false, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, vni uint32, lbTag, ce, fbTag, fbMetric uint8, fbValid bool, raw []byte) {
		h := Header{VNI: vni, LBTag: lbTag, CE: ce, FBValid: fbValid, FBLBTag: fbTag, FBMetric: fbMetric}
		fits := vni < 1<<24 && lbTag <= maxLBTag && ce <= maxCE && fbTag <= maxLBTag && fbMetric <= maxCE
		prefix := []byte{0xDE}
		buf, err := h.Encode(prefix)
		switch {
		case !fits:
			if err == nil || len(buf) != 1 {
				t.Fatalf("%+v overflows a field: Encode = (%x, %v), want the prefix and an error", h, buf, err)
			}
		case err != nil:
			t.Fatalf("%+v fits: Encode error %v", h, err)
		case len(buf) != 1+HeaderLen || buf[1] != flagVNIValid || buf[3]&1 != 0 || buf[4] != 0 || buf[8] != 0:
			t.Fatalf("%+v encodes to %x: want the I flag and every reserved bit clear", h, buf[1:])
		default:
			if got, err := DecodeHeader(buf[1:]); err != nil || got != h {
				t.Fatalf("%+v encodes to %x, which decodes to (%+v, %v)", h, buf[1:], got, err)
			}
		}

		got, err := DecodeHeader(raw)
		if wantErr := len(raw) < HeaderLen || raw[0]&flagVNIValid == 0; wantErr != (err != nil) {
			t.Fatalf("DecodeHeader(%x) error %v, want an error: %v", raw, err, wantErr)
		}
		if err != nil {
			return
		}
		again, err := got.Encode(nil)
		if err != nil {
			t.Fatalf("%x decodes to %+v, which Encode refuses: %v", raw, got, err)
		}
		want := []byte{flagVNIValid, raw[1], raw[2] &^ 1, 0, raw[4], raw[5], raw[6], 0}
		if !bytes.Equal(again, want) {
			t.Fatalf("%x decodes to %+v, which re-encodes to %x, want %x", raw, got, again, want)
		}
	})
}
