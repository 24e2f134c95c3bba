package wire

import (
	"bytes"
	"testing"

	"repro/internal/headerspace"
)

func samplePacket() *Packet {
	return &Packet{
		EthDst:  0x0000AABBCCDD,
		EthSrc:  0x000011223344,
		EthType: EthTypeIPv4,
		IPSrc:   IPv4(10, 0, 0, 1),
		IPDst:   IPv4(10, 0, 1, 2),
		IPProto: IPProtoUDP,
		TTL:     64,
		L4Src:   5000,
		L4Dst:   PortRVaaSV2,
		Payload: []byte("hello rvaas"),
	}
}

func TestPacketMarshalRoundTrip(t *testing.T) {
	p := samplePacket()
	data := p.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.EthDst != p.EthDst || got.EthSrc != p.EthSrc || got.EthType != p.EthType {
		t.Errorf("ethernet fields mismatch: %+v", got)
	}
	if got.IPSrc != p.IPSrc || got.IPDst != p.IPDst || got.IPProto != p.IPProto || got.TTL != p.TTL {
		t.Errorf("ip fields mismatch: %+v", got)
	}
	if got.L4Src != p.L4Src || got.L4Dst != p.L4Dst {
		t.Errorf("udp ports mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("payload mismatch: %q", got.Payload)
	}
}

func TestPacketVLANRoundTrip(t *testing.T) {
	p := samplePacket()
	p.VLAN = 42
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.VLAN != 42 {
		t.Errorf("vlan = %d, want 42", got.VLAN)
	}
	if got.EthType != EthTypeIPv4 {
		t.Errorf("inner ethtype = %#x", got.EthType)
	}
}

func TestPacketNonIPRoundTrip(t *testing.T) {
	p := &Packet{
		EthDst:  0x0180C200000E,
		EthSrc:  1,
		EthType: EthTypeLLDP,
		Payload: []byte{1, 2, 3},
	}
	got, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.EthType != EthTypeLLDP || !bytes.Equal(got.Payload, []byte{1, 2, 3}) {
		t.Errorf("non-IP round trip: %+v", got)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("want error for truncated frame")
	}
	p := samplePacket()
	data := p.Marshal()
	if _, err := Unmarshal(data[:20]); err == nil {
		t.Error("want error for truncated IPv4")
	}
}

func TestUnmarshalChecksumCorruption(t *testing.T) {
	data := samplePacket().Marshal()
	data[ethHeaderLen+8]++ // corrupt TTL inside IPv4 header
	if _, err := Unmarshal(data); err != ErrBadChecksum {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestMagicPredicates(t *testing.T) {
	q := samplePacket()
	if !q.IsRVaaSV2() || q.IsRVaaSV2Reply() {
		t.Error("client envelope predicates wrong")
	}
	q.L4Src, q.L4Dst = PortRVaaSV2, 5000
	if !q.IsRVaaSV2Reply() || q.IsRVaaSV2() {
		t.Error("reply envelope predicates wrong")
	}
	if lldp := (&Packet{EthType: EthTypeLLDP, L4Dst: PortRVaaSV2}); lldp.IsRVaaSV2() {
		t.Error("a non-IP frame classified as an envelope")
	}
}

func TestIPHelpers(t *testing.T) {
	ip := IPv4(192, 168, 1, 200)
	if IPString(ip) != "192.168.1.200" {
		t.Errorf("IPString = %s", IPString(ip))
	}
}

func TestCloneIndependence(t *testing.T) {
	p := samplePacket()
	c := p.Clone()
	c.Payload[0] = 'X'
	c.IPDst = 7
	if p.Payload[0] == 'X' || p.IPDst == 7 {
		t.Error("clone shares state with original")
	}
}

func TestPacketBitsMatchPacketHeader(t *testing.T) {
	// matches reports whether h is exactly the concrete bit string bits.
	matches := func(h headerspace.Header, bits []byte) bool {
		msbFirst := make([]byte, len(bits))
		for i, b := range bits {
			msbFirst[len(bits)-1-i] = '0' + b
		}
		want := headerspace.MustParse(string(msbFirst))
		return h.Covers(want) && want.Covers(h)
	}
	p := samplePacket()
	h := PacketHeader(p)
	if !matches(h, PacketBits(p)) {
		t.Error("PacketHeader must match PacketBits of the same packet")
	}
	// A different packet must not match.
	q := samplePacket()
	q.IPDst = IPv4(99, 9, 9, 9)
	if matches(h, PacketBits(q)) {
		t.Error("distinct packets should not match")
	}
}

func TestFieldHeaderMasking(t *testing.T) {
	// /24 prefix match on IPDst.
	h := FieldHeader(FieldIPDst, uint64(IPv4(10, 0, 1, 0)), 0xFFFFFF00)
	in := samplePacket() // 10.0.1.2
	if !h.Covers(PacketHeader(in)) {
		t.Error("10.0.1.2 should be in 10.0.1.0/24")
	}
	out := samplePacket()
	out.IPDst = IPv4(10, 0, 2, 2)
	if h.Covers(PacketHeader(out)) {
		t.Error("10.0.2.2 should not be in 10.0.1.0/24")
	}
}

func TestFieldsCoverHeaderWidth(t *testing.T) {
	total := 0
	for _, f := range Fields() {
		_, w := FieldOffset(f)
		total += w
		if FieldName(f) == "" {
			t.Errorf("field %d unnamed", f)
		}
	}
	if total != HeaderWidth {
		t.Errorf("field widths sum to %d, want %d", total, HeaderWidth)
	}
}
