package openflow

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/wire"
)

func sampleEntry() FlowEntry {
	return FlowEntry{
		Priority: 100,
		Match: Match{
			InPort: 3,
			Fields: []FieldMatch{
				{Field: wire.FieldIPDst, Value: uint64(wire.IPv4(10, 0, 1, 0)), Mask: 0xFFFFFF00},
				{Field: wire.FieldIPProto, Value: uint64(wire.IPProtoUDP), Mask: 0xFF},
			},
		},
		Actions: []Action{Output(7), SetField(wire.FieldVLAN, 42)},
		Cookie:  0xC00C1E,
	}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	data := Encode(m)
	got, n, err := Decode(data)
	if err != nil {
		t.Fatalf("decode %s: %v", m.Type(), err)
	}
	if n != len(data) {
		t.Fatalf("consumed %d of %d bytes", n, len(data))
	}
	return got
}

func TestEncodeDecodeAllTypes(t *testing.T) {
	msgs := []Message{
		&Hello{XID: 1, DatapathID: 99},
		&EchoRequest{XID: 2, Data: []byte("ping")},
		&EchoReply{XID: 2, Data: []byte("ping")},
		&ErrorMsg{XID: 3, Code: ErrCodeBadMatch, Reason: "bad match"},
		&FlowMod{XID: 4, Command: FlowAdd, Entry: sampleEntry()},
		&PacketIn{XID: 5, Reason: ReasonNoMatch, InPort: 2, Cookie: 77, Data: []byte{1, 2, 3}},
		&PacketOut{XID: 6, InPort: AnyPort, Actions: []Action{Output(4)}, Data: []byte{9}},
		&FlowMonitorRequest{XID: 7, MonitorID: 1},
		&FlowMonitorReply{XID: 8, MonitorID: 1, Kind: FlowEventAdded, Entry: sampleEntry(), Seq: 12},
		&StatsRequest{XID: 9},
		&StatsReply{XID: 10, DatapathID: 5, Entries: []FlowEntry{sampleEntry()}, Ports: []uint32{1, 2, 3}, TableSeq: 44},
		&BarrierRequest{XID: 11},
		&BarrierReply{XID: 11},
		&PortStatus{XID: 12, Port: 3, Up: true},
		&MeterMod{XID: 13, Command: MeterAdd, Config: MeterConfig{MeterID: 9, RateKbps: 512, BurstKB: 64}},
		&StatsReply{XID: 14, DatapathID: 5, Entries: []FlowEntry{sampleEntry()},
			Ports: []uint32{1}, Meters: []MeterConfig{{MeterID: 2, RateKbps: 100, BurstKB: 8}}, TableSeq: 9},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s round trip mismatch:\n got %#v\nwant %#v", m.Type(), got, m)
		}
	}
}

func TestDecodeStream(t *testing.T) {
	a := Encode(&Hello{XID: 1})
	b := Encode(&BarrierRequest{XID: 2})
	stream := append(append([]byte{}, a...), b...)
	m1, n1, err := Decode(stream)
	if err != nil || m1.Type() != TypeHello {
		t.Fatalf("first: %v %v", m1, err)
	}
	m2, n2, err := Decode(stream[n1:])
	if err != nil || m2.Type() != TypeBarrierRequest {
		t.Fatalf("second: %v %v", m2, err)
	}
	if n1+n2 != len(stream) {
		t.Errorf("consumed %d, want %d", n1+n2, len(stream))
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("nil input should fail")
	}
	bad := Encode(&Hello{XID: 1})
	bad[0] = 0x01
	if _, _, err := Decode(bad); err != ErrBadVersion {
		t.Errorf("version check: %v", err)
	}
	unknown := Encode(&Hello{XID: 1})
	unknown[1] = 0xEE
	if _, _, err := Decode(unknown); err == nil {
		t.Error("unknown type should fail")
	}
	short := Encode(&FlowMod{XID: 4, Command: FlowAdd, Entry: sampleEntry()})
	if _, _, err := Decode(short[:len(short)-3]); err == nil {
		t.Error("truncated body should fail")
	}
	// A body longer than its fields, with the envelope length covering the
	// extra byte, must not half-parse.
	padded := append(Encode(&Hello{XID: 1, DatapathID: 2}), 0)
	binary.BigEndian.PutUint32(padded[2:], uint32(len(padded)-envelopeLen))
	if _, _, err := Decode(padded); err == nil {
		t.Error("trailing body bytes should fail")
	}
}

func TestMatchToHeader(t *testing.T) {
	m := Match{Fields: []FieldMatch{
		{Field: wire.FieldIPDst, Value: uint64(wire.IPv4(10, 0, 1, 2)), Mask: 0xFFFFFFFF},
	}}
	h := m.ToHeader()
	pkt := &wire.Packet{EthType: wire.EthTypeIPv4, IPDst: wire.IPv4(10, 0, 1, 2)}
	if !h.Covers(wire.PacketHeader(pkt)) {
		t.Error("header should match the packet")
	}
	pkt.IPDst = wire.IPv4(10, 0, 1, 3)
	if h.Covers(wire.PacketHeader(pkt)) {
		t.Error("header should not match a different dst")
	}
}

func TestMatchesPacket(t *testing.T) {
	m := Match{
		InPort: 2,
		Fields: []FieldMatch{
			{Field: wire.FieldL4Dst, Value: uint64(wire.PortRVaaSV2), Mask: 0xFFFF},
			{Field: wire.FieldIPProto, Value: uint64(wire.IPProtoUDP), Mask: 0xFF},
		},
	}
	p := &wire.Packet{
		EthType: wire.EthTypeIPv4, IPProto: wire.IPProtoUDP, L4Dst: wire.PortRVaaSV2,
	}
	if !m.MatchesPacket(p, 2) {
		t.Error("should match on port 2")
	}
	if m.MatchesPacket(p, 3) {
		t.Error("should not match on port 3")
	}
	p.L4Dst = 80
	if m.MatchesPacket(p, 2) {
		t.Error("should not match different dst port")
	}
}

// TestMatchesPacketAgreesWithModel: the data plane's match (MatchesPacket)
// and the model's (ToHeader covering the packet's concrete header) agree on every
// field, seeded, including masks with bits beyond the field's width: those
// bits constrain nothing on either side.
func TestMatchesPacketAgreesWithModel(t *testing.T) {
	check := func(fm FieldMatch, p *wire.Packet) {
		t.Helper()
		m := Match{Fields: []FieldMatch{fm}}
		if dp, model := m.MatchesPacket(p, 1), m.ToHeader().Covers(wire.PacketHeader(p)); dp != model {
			t.Fatalf("%s value %#x mask %#x on %v: data plane %v, model %v",
				wire.FieldName(fm.Field), fm.Value, fm.Mask, p, dp, model)
		}
	}
	check(FieldMatch{Field: wire.FieldVLAN, Value: 0x1000, Mask: 0xffff}, &wire.Packet{})

	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := &wire.Packet{
			EthDst: r.Uint64() & (1<<48 - 1), EthSrc: r.Uint64() & (1<<48 - 1),
			EthType: uint16(r.Uint32()), VLAN: uint16(r.Intn(1 << 12)),
			IPSrc: r.Uint32(), IPDst: r.Uint32(), IPProto: uint8(r.Uint32()),
			L4Src: uint16(r.Uint32()), L4Dst: uint16(r.Uint32()),
		}
		for _, f := range wire.Fields() {
			// The packet's own value, so the match is often a hit; half
			// the time one bit anywhere in the 64 flips.
			value := p.Field(f)
			if r.Intn(2) == 0 {
				value ^= 1 << uint(r.Intn(64))
			}
			mask := r.Uint64()
			if r.Intn(2) == 0 {
				mask = ^uint64(0)
			}
			check(FieldMatch{Field: f, Value: value, Mask: mask}, p)
		}
	}
}

func TestMatchAllMatchesEverything(t *testing.T) {
	m := Match{InPort: AnyPort}
	p := &wire.Packet{EthType: wire.EthTypeIPv4, IPDst: 1}
	if !m.MatchesPacket(p, 99) {
		t.Error("an AnyPort match with no fields should match")
	}
	if m.HasInPort() {
		t.Error("AnyPort is no in-port constraint")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for mt := TypeHello; mt <= TypePortStatus; mt++ {
		if mt.String() == "" {
			t.Errorf("type %d unnamed", mt)
		}
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	m := &FlowMod{XID: 4, Command: FlowAdd, Entry: sampleEntry()}
	if !bytes.Equal(Encode(m), Encode(m)) {
		t.Error("encoding must be deterministic")
	}
}
