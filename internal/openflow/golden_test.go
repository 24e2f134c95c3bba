package openflow

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/wire"
)

// The golden tests lock the OpenFlow channel encoding byte-for-byte: one
// fixture per message type plus the handshake and certificate bytes, so no
// refactor of the codec can move a byte a switch or controller decodes.

func goldenEntry() FlowEntry {
	return FlowEntry{
		Priority: 100,
		Match: Match{InPort: 3, Fields: []FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(wire.IPv4(10, 0, 1, 0)), Mask: 0xFFFFFF00},
			{Field: wire.FieldIPProto, Value: uint64(wire.IPProtoUDP), Mask: 0xFF},
		}},
		Actions: []Action{SetField(wire.FieldVLAN, 42), Output(7),
			{Type: ActionPushVLAN, Field: wire.FieldVLAN, Value: 100}, {Type: ActionPopVLAN}, Output(ControllerPort)},
		Cookie: 0xC00C1E, IdleTimeout: 30, HardTimeout: 60, MeterID: 9,
	}
}

// goldenMessages holds one message of every type with its encoding.
var goldenMessages = []struct {
	msg Message
	hex string
}{
	{&Hello{XID: 1, DatapathID: 0x0102030405060708},
		"7a010000000c000000010102030405060708"},
	{&EchoRequest{XID: 2, Data: []byte("ping")},
		"7a020000000c000000020000000470696e67"},
	{&EchoReply{XID: 3, Data: []byte("pong"), TableSeq: 45},
		"7a03000000140000000300000004706f6e67000000000000002d"},
	{&ErrorMsg{XID: 4, Code: ErrCodeTableFull, Reason: "full"},
		"7a040000000e0000000400040000000466756c6c"},
	{&FlowMod{XID: 5, Command: FlowAdd, Entry: goldenEntry()},
		"7a05000000870000000501006400000003000206000000000a00010000000000ffffff0007000000000000001100000000000000ff0005020000000004000000000000002a01000000070000000000000000000300000000040000000000000064040000000000000000000000000001fffffffe0000000000000000000000000000c00c1e001e003c00000009"},
	{&PacketIn{XID: 6, Reason: ReasonAction, InPort: 2, Cookie: 0xC0DE, Data: []byte{1, 2, 3}},
		"7a0600000018000000060200000002000000000000c0de00000003010203"},
	{&PacketOut{XID: 7, InPort: AnyPort, Actions: []Action{Output(4), Output(FloodPort)}, Data: []byte{9, 8}},
		"7a070000002c00000007ffffffff0002010000000400000000000000000001fffffffd000000000000000000000000020908"},
	{&FlowMonitorRequest{XID: 8, MonitorID: 1},
		"7a08000000080000000800000001"},
	{&FlowMonitorReply{XID: 9, MonitorID: 1, Kind: FlowEventModified, Entry: goldenEntry(), Seq: 12},
		"7a0900000093000000090000000103006400000003000206000000000a00010000000000ffffff0007000000000000001100000000000000ff0005020000000004000000000000002a01000000070000000000000000000300000000040000000000000064040000000000000000000000000001fffffffe0000000000000000000000000000c00c1e001e003c00000009000000000000000c"},
	{&StatsRequest{XID: 10},
		"7a0a000000040000000a"},
	{&StatsReply{XID: 11, DatapathID: 5, Entries: []FlowEntry{goldenEntry(), {Priority: 1, Match: Match{InPort: AnyPort}}},
		Ports: []uint32{1, 2, 3}, Meters: []MeterConfig{{MeterID: 2, RateKbps: 100, BurstKB: 8}}, TableSeq: 44},
		"7a0b000000ce0000000b00000000000000050002006400000003000206000000000a00010000000000ffffff0007000000000000001100000000000000ff0005020000000004000000000000002a01000000070000000000000000000300000000040000000000000064040000000000000000000000000001fffffffe0000000000000000000000000000c00c1e001e003c000000090001ffffffff000000000000000000000000000000000000000000030000000100000002000000030001000000020000006400000008000000000000002c"},
	{&BarrierRequest{XID: 12},
		"7a0c000000040000000c"},
	{&BarrierReply{XID: 13},
		"7a0d000000040000000d"},
	{&PortStatus{XID: 14, Port: 3, Up: true},
		"7a0e000000090000000e0000000301"},
	{&MeterMod{XID: 15, Command: MeterAdd, Config: MeterConfig{MeterID: 9, RateKbps: 512, BurstKB: 64}},
		"7a0f000000110000000f01000000090000020000000040"},
}

func TestGoldenMessages(t *testing.T) {
	seen := map[MsgType]bool{}
	for _, tc := range goldenMessages {
		seen[tc.msg.Type()] = true
		got := Encode(tc.msg)
		if hex.EncodeToString(got) != tc.hex {
			t.Errorf("%s drifted from the golden bytes:\n got  %x\n want %s", tc.msg.Type(), got, tc.hex)
			continue
		}
		back, n, err := Decode(got)
		if err != nil || n != len(got) {
			t.Errorf("%s: decode golden bytes: n=%d err=%v", tc.msg.Type(), n, err)
			continue
		}
		if !reflect.DeepEqual(back, tc.msg) {
			t.Errorf("%s: golden bytes decode to %#v", tc.msg.Type(), back)
		}
	}
	for mt := TypeHello; mt <= TypeMeterMod; mt++ {
		if !seen[mt] {
			t.Errorf("no golden fixture for %s", mt)
		}
	}
}

func TestGoldenHandshake(t *testing.T) {
	h := &handshakeMsg{cert: Certificate{Name: "sw1", Pub: []byte{1, 2, 3}, Sig: []byte{4, 5}}, ephPub: []byte{6, 7}, sig: []byte{8}}
	const want = "0000001400000003737731000000030102030000000204050000000206070000000108"
	got := h.marshal()
	if hex.EncodeToString(got) != want {
		t.Fatalf("handshake drifted:\n got  %x\n want %s", got, want)
	}
	back, err := unmarshalHandshake(got)
	if err != nil || !reflect.DeepEqual(back, h) {
		t.Fatalf("handshake round trip: %#v, %v", back, err)
	}
	if _, err := unmarshalHandshake(got[:len(got)-1]); err != ErrShortMessage {
		t.Fatalf("truncated handshake: %v", err)
	}
	if sb := certSigningBytes("sw1", []byte{1, 2, 3}); !bytes.Equal(sb, []byte("ofcert.1\x00\x03sw1\x01\x02\x03")) {
		t.Fatalf("certificate signing bytes drifted: %x", sb)
	}
}
