package core

import "fmt"

// CONGA piggybacks its congestion state on the VXLAN overlay header (§3.1).
// The standard VXLAN header is 8 bytes:
//
//	 0                   1                   2                   3
//	 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	|R|R|R|R|I|R|R|R|            Reserved                           |
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//	|                VXLAN Network Identifier (VNI) |   Reserved    |
//	+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//
// CONGA repurposes reserved bits to carry four fields: LBTag (4 bits), CE
// (3 bits), FB_LBTag (4 bits) and FB_Metric (3 bits), plus one flag marking
// the feedback fields as valid. This file packs them into the first
// reserved region so the header stays a valid 8-byte VXLAN header:
//
//	byte 0: flags (0x08 = I bit, VNI valid)
//	byte 1: LBTag(4) | CE(3) | FBValid(1)
//	byte 2: FB_LBTag(4) | FB_Metric(3) | reserved(1)
//	byte 3: reserved
//	bytes 4..6: VNI
//	byte 7: reserved
//
// The simulator carries a Header on each packet as a struct and never
// serialises it: Encode and DecodeHeader model the wire format, and
// FuzzHeaderRoundTrip pins them.

// HeaderLen is the encoded size of the CONGA/VXLAN overlay header in bytes.
const HeaderLen = 8

// EncapOverhead is the total per-packet overlay encapsulation overhead on
// fabric links: outer Ethernet (18) + outer IPv4 (20) + outer UDP (8) +
// VXLAN/CONGA header (8), matching a standard VXLAN deployment.
const EncapOverhead = 18 + 20 + 8 + HeaderLen

// maxLBTag and maxCE are the largest values representable in the wire
// format's 4-bit tag and 3-bit metric fields.
const (
	maxLBTag = 15
	maxCE    = 7
)

const flagVNIValid = 0x08

// Header is the decoded CONGA overlay header.
type Header struct {
	// VNI is the 24-bit VXLAN network identifier of the tenant overlay.
	VNI uint32
	// LBTag partially identifies the packet's path: the source leaf sets
	// it to the uplink port number the packet was sent on (§3.1).
	LBTag uint8
	// CE carries the extent of congestion seen so far on the packet's
	// path: the maximum DRE metric over traversed links (§3.3 step 2).
	CE uint8
	// FBValid reports whether the FB fields carry a metric. The paper
	// assumes every packet carries feedback; a fresh leaf pair has
	// nothing to feed back yet, so a validity flag is required in
	// practice.
	FBValid bool
	// FBLBTag says which LBTag the piggybacked feedback is for.
	FBLBTag uint8
	// FBMetric is the congestion metric being fed back for FBLBTag.
	FBMetric uint8
}

// Validate reports whether all fields fit the wire format.
func (h Header) Validate() error {
	switch {
	case h.VNI >= 1<<24:
		return fmt.Errorf("core: VNI %d exceeds 24 bits", h.VNI)
	case h.LBTag > maxLBTag:
		return fmt.Errorf("core: LBTag %d exceeds 4 bits", h.LBTag)
	case h.CE > maxCE:
		return fmt.Errorf("core: CE %d exceeds 3 bits", h.CE)
	case h.FBLBTag > maxLBTag:
		return fmt.Errorf("core: FB_LBTag %d exceeds 4 bits", h.FBLBTag)
	case h.FBMetric > maxCE:
		return fmt.Errorf("core: FB_Metric %d exceeds 3 bits", h.FBMetric)
	}
	return nil
}

// Encode appends the 8-byte wire representation to dst and returns the
// extended slice. It returns an error if any field overflows its bit width.
func (h Header) Encode(dst []byte) ([]byte, error) {
	if err := h.Validate(); err != nil {
		return dst, err
	}
	var b [HeaderLen]byte
	b[0] = flagVNIValid
	b[1] = h.LBTag<<4 | h.CE<<1
	if h.FBValid {
		b[1] |= 1
	}
	b[2] = h.FBLBTag<<4 | h.FBMetric<<1
	b[4] = byte(h.VNI >> 16)
	b[5] = byte(h.VNI >> 8)
	b[6] = byte(h.VNI)
	return append(dst, b[:]...), nil
}

// DecodeHeader parses the first 8 bytes of buf.
func DecodeHeader(buf []byte) (Header, error) {
	if len(buf) < HeaderLen {
		return Header{}, fmt.Errorf("core: header truncated: %d bytes, need %d", len(buf), HeaderLen)
	}
	if buf[0]&flagVNIValid == 0 {
		return Header{}, fmt.Errorf("core: VXLAN I flag not set (byte 0 = %#02x)", buf[0])
	}
	h := Header{
		LBTag:    buf[1] >> 4,
		CE:       buf[1] >> 1 & maxCE,
		FBValid:  buf[1]&1 != 0,
		FBLBTag:  buf[2] >> 4,
		FBMetric: buf[2] >> 1 & maxCE,
		VNI:      uint32(buf[4])<<16 | uint32(buf[5])<<8 | uint32(buf[6]),
	}
	return h, nil
}
