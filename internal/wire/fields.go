// Package wire defines the concrete packet model of the reproduction: the
// header fields switches match on, their bit layout inside the header-space
// vector, Ethernet/IPv4/UDP framing, the RVaaS magic header values used for
// in-band client interaction (paper §IV-A3), and the binary codecs for
// query/authentication messages.
package wire

import (
	"repro/internal/headerspace"
)

// Field identifies one matchable packet header field.
type Field int

// Matchable fields, mirroring the OpenFlow 1.0 12-tuple subset we model.
const (
	FieldEthDst Field = iota + 1
	FieldEthSrc
	FieldEthType
	FieldVLAN
	FieldIPSrc
	FieldIPDst
	FieldIPProto
	FieldL4Src
	FieldL4Dst
)

// fieldSpec describes where a field lives inside the header-space vector
// and how a Packet holds it.
type fieldSpec struct {
	offset int
	width  int
	name   string
	get    func(*Packet) uint64
	set    func(*Packet, uint64)
}

// fieldSpecs is indexed by Field; entry 0 (no field) has width 0.
var fieldSpecs = [...]fieldSpec{
	FieldEthDst:  {0, 48, "eth_dst", func(p *Packet) uint64 { return p.EthDst }, func(p *Packet, v uint64) { p.EthDst = v }},
	FieldEthSrc:  {48, 48, "eth_src", func(p *Packet) uint64 { return p.EthSrc }, func(p *Packet, v uint64) { p.EthSrc = v }},
	FieldEthType: {96, 16, "eth_type", func(p *Packet) uint64 { return uint64(p.EthType) }, func(p *Packet, v uint64) { p.EthType = uint16(v) }},
	FieldVLAN:    {112, 12, "vlan", func(p *Packet) uint64 { return uint64(p.VLAN) }, func(p *Packet, v uint64) { p.VLAN = uint16(v) }},
	FieldIPSrc:   {124, 32, "ip_src", func(p *Packet) uint64 { return uint64(p.IPSrc) }, func(p *Packet, v uint64) { p.IPSrc = uint32(v) }},
	FieldIPDst:   {156, 32, "ip_dst", func(p *Packet) uint64 { return uint64(p.IPDst) }, func(p *Packet, v uint64) { p.IPDst = uint32(v) }},
	FieldIPProto: {188, 8, "ip_proto", func(p *Packet) uint64 { return uint64(p.IPProto) }, func(p *Packet, v uint64) { p.IPProto = uint8(v) }},
	FieldL4Src:   {196, 16, "l4_src", func(p *Packet) uint64 { return uint64(p.L4Src) }, func(p *Packet, v uint64) { p.L4Src = uint16(v) }},
	FieldL4Dst:   {212, 16, "l4_dst", func(p *Packet) uint64 { return uint64(p.L4Dst) }, func(p *Packet, v uint64) { p.L4Dst = uint16(v) }},
}

// specOf returns f's layout; a value naming no field (a rule decoded off the
// wire can carry one) has width 0: it constrains, reads and rewrites nothing.
func specOf(f Field) *fieldSpec {
	if f < 0 || int(f) >= len(fieldSpecs) {
		f = 0
	}
	return &fieldSpecs[f]
}

// ClipMask clips mask to the width of field f. Mask bits beyond the field
// constrain nothing: the data plane (openflow.Match.MatchesPacket) and the
// model (FieldHeader) both match through this one clip.
func ClipMask(f Field, mask uint64) uint64 {
	if w := specOf(f).width; w < 64 {
		mask &= 1<<uint(w) - 1
	}
	return mask
}

// Field reads field f of the packet (0 for a value naming no field).
func (p *Packet) Field(f Field) uint64 {
	if s := specOf(f); s.get != nil {
		return s.get(p)
	}
	return 0
}

// SetField writes v, clipped to the field's width, into field f (a no-op for
// a value naming no field).
func (p *Packet) SetField(f Field, v uint64) {
	if s := specOf(f); s.set != nil {
		s.set(p, ClipMask(f, v))
	}
}

// HeaderWidth is the total ternary width of the header-space vector covering
// all matchable fields.
const HeaderWidth = 228

// FieldOffset returns the bit offset and width of the field inside the
// header-space vector.
func FieldOffset(f Field) (offset, width int) {
	s := specOf(f)
	return s.offset, s.width
}

// FieldName returns a short protocol name for the field.
func FieldName(f Field) string { return specOf(f).name }

// Fields lists every matchable field in layout order.
func Fields() []Field {
	return []Field{
		FieldEthDst, FieldEthSrc, FieldEthType, FieldVLAN,
		FieldIPSrc, FieldIPDst, FieldIPProto, FieldL4Src, FieldL4Dst,
	}
}

// FieldHeader builds an all-wildcard header constraining only the given
// field to value under mask (mask bit 1 = exact).
func FieldHeader(f Field, value, mask uint64) headerspace.Header {
	s := specOf(f)
	return headerspace.FromValueMask(HeaderWidth, s.offset, s.width, value, ClipMask(f, mask))
}

// PacketHeader converts a packet into a fully-concrete header-space header.
func PacketHeader(p *Packet) headerspace.Header {
	h := headerspace.AllX(HeaderWidth)
	for _, f := range Fields() {
		if x, err := h.Intersect(FieldHeader(f, p.Field(f), ^uint64(0))); err == nil {
			h = x
		}
	}
	return h
}
