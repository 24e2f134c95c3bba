package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// The golden-frame tests lock the client wire encoding byte-for-byte: one
// fixture per single-op body codec, each framed in the envelope its op
// travels in, so no refactor can move a byte of the frame, the envelope
// header or a body that deployed clients decode.

// toRVaaS / fromRVaaS frame a body the way clients and RVaaS send it.
func toRVaaS(mac uint64, ip uint32, op Op, corr uint64, body []byte) *Packet {
	return NewEnvelopePacket(mac, ip, &Envelope{Version: EnvelopeVersion, Op: op, CorrelationID: corr, SessionID: 0x5E55, Body: body})
}

func fromRVaaS(mac uint64, ip uint32, op Op, corr uint64, body []byte) *Packet {
	return NewEnvelopeReplyPacket(mac, ip, &Envelope{Version: EnvelopeVersion, Op: op, CorrelationID: corr, Body: body})
}

func goldenPacket(t *testing.T, name, wantHex string, pkt *Packet) {
	t.Helper()
	got := pkt.Marshal()
	want, err := hex.DecodeString(wantHex)
	if err != nil {
		t.Fatalf("%s: bad fixture: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s frame drifted from the golden bytes:\n got  %s\n want %s",
			name, hex.EncodeToString(got), wantHex)
	}
	// The frame must also survive a decode round-trip.
	back, err := Unmarshal(got)
	if err != nil {
		t.Fatalf("%s: unmarshal golden frame: %v", name, err)
	}
	if !bytes.Equal(back.Marshal(), got) {
		t.Fatalf("%s: decode/encode round-trip not stable", name)
	}
}

func TestGoldenQueryPacket(t *testing.T) {
	q := &QueryRequest{Version: 1, Kind: QueryReachableDestinations, ClientID: 7, Nonce: 0x1122334455667788,
		Constraints: []FieldConstraint{{Field: FieldIPDst, Value: 0x0A000001, Mask: 0xFFFFFFFF}},
		Param:       "p", DeadlineMillis: 250}
	goldenPacket(t, "query",
		"ffffffffffff02000000000108004500005e00000000401165910a0000010afffffe04885aab004a0000020111223344556677880000000000005e550000002c010100000000000000071122334455667788000106000000000a00000100000000ffffffff000170000000fa",
		toRVaaS(0x020000000001, IPv4(10, 0, 0, 1), OpQuery, q.Nonce, q.Marshal()))
}

func TestGoldenAuthRequestPacket(t *testing.T) {
	ar := &AuthRequest{QueryNonce: 0x1122334455667788, Challenge: 0xCAFEBABE, ServerKey: []byte{1, 2, 3}}
	goldenPacket(t, "auth-request",
		"02000000000202005aa5000108004500004700000000401165a70afffffe0a0000025aab704000330000020e00000000cafebabe000000000000000000000015112233445566778800000000cafebabe0003010203",
		fromRVaaS(0x020000000002, IPv4(10, 0, 0, 2), OpAuthChallenge, ar.Challenge, ar.Marshal()))
}

func TestGoldenAuthReplyPacket(t *testing.T) {
	rep := &AuthReply{QueryNonce: 0x1122334455667788, Challenge: 0xCAFEBABE, ClientID: 7, Signature: []byte{9}, PubKey: []byte{8}}
	goldenPacket(t, "auth-reply",
		"ffffffffffff020000000003080045000050000000004011659d0a0000030afffffe70405aab003c0000020f00000000cafebabe0000000000005e550000001e112233445566778800000000cafebabe0000000000000007000109000108",
		toRVaaS(0x020000000003, IPv4(10, 0, 0, 3), OpAuthReply, rep.Challenge, rep.Marshal()))
}

func TestGoldenResponsePacket(t *testing.T) {
	resp := &QueryResponse{Version: 1, Kind: QueryReachableDestinations, Nonce: 0x1122334455667788,
		Status: StatusOK, Detail: "d",
		Endpoints: []Endpoint{{ClientID: 7, SwitchID: 2, Port: 3, Authenticated: true, Detail: "eu"}},
		Regions:   []string{"eu"}, AuthRequested: 1, AuthReplied: 1, SnapshotID: 42,
		Signature: []byte{0xAA}, Quote: []byte{0xBB}}
	goldenPacket(t, "response",
		"02000000000402005aa5000108004500007300000000401165790afffffe0a0000045aab0488005f000002021122334455667788000000000000000000000041010111223344556677880100016400010000000000000007000000020000000301000265750001000265750000000100000001000000000000002a0001aa0001bb",
		fromRVaaS(0x020000000004, IPv4(10, 0, 0, 4), OpQueryResponse, resp.Nonce, resp.Marshal()))
}

func TestGoldenSubscribePacket(t *testing.T) {
	sr := &SubscribeRequest{Version: 1, Op: SubOpAdd, ClientID: 7, Nonce: 0x2233445566778899,
		AnchorSwitch: 1, AnchorPort: 2, Kind: QueryIsolation,
		Constraints: []FieldConstraint{{Field: FieldIPDst, Value: 0x0A000002, Mask: 0xFFFFFFFF}},
		Signature:   []byte{0xCC}}
	goldenPacket(t, "subscribe",
		"ffffffffffff02000000000508004500007500000000401165760a0000050afffffe88885aab00610000020322334455667788990000000000005e550000004301010000000000000007223344556677889900000000000000000000000000000000000000010000000203000106000000000a00000200000000ffffffff00000001cc",
		toRVaaS(0x020000000005, IPv4(10, 0, 0, 5), OpSubscribe, sr.Nonce, sr.Marshal()))
}

func TestGoldenNotificationPacket(t *testing.T) {
	n := &Notification{Version: 1, Event: NotifyViolation, Kind: QueryIsolation,
		Status: StatusViolation, SubID: 4, Nonce: 0x2233445566778899, Seq: 2, SnapshotID: 43,
		Detail: "v", Signature: []byte{0xDD}, Quote: []byte{0xEE}}
	goldenPacket(t, "notification",
		"02000000000602005aa5000108004500005f000000004011658b0afffffe0a0000065aab8888004b00000206223344556677889900000000000000000000002d01020302000000000000000422334455667788990000000000000002000000000000002b0001760001dd0001ee",
		fromRVaaS(0x020000000006, IPv4(10, 0, 0, 6), OpNotify, n.Nonce, n.Marshal()))
}

func TestGoldenNotifyBatchPacket(t *testing.T) {
	b := &NotifyBatch{Version: 1, SnapshotID: 43, Items: []NotifyItem{
		{Event: NotifyViolation, Kind: QueryIsolation, Status: StatusViolation, SubID: 4, Nonce: 0x2233445566778899, Seq: 2, Detail: "v"},
		{Event: NotifyRecovery, Kind: QueryPathLength, Status: StatusOK, SubID: 9, Nonce: 0x33445566778899AA, Seq: 5, Detail: "ok"},
	}, Signature: []byte{0xDD}, Quote: []byte{0xEE}}
	goldenPacket(t, "notify-batch",
		"02000000000602005aa5000108004500008200000000401165680afffffe0a0000065aab0408006e00000210010203040506070800000000000000000000005001000000000000002b00000002020302000000000000000422334455667788990000000000000002000176030501000000000000000933445566778899aa000000000000000500026f6b0001dd0001ee",
		fromRVaaS(0x020000000006, IPv4(10, 0, 0, 6), OpNotifyBatch, 0x0102030405060708, b.Marshal()))
}

func TestGoldenProbePacket(t *testing.T) {
	pp := &ProbePayload{ProbeID: 5, SrcSwitch: 1, SrcPort: 2, IssuedUnix: 1700000000, MAC: []byte{0x11}}
	goldenPacket(t, "probe",
		"0180c200000e02005aa5000288b500000000000000050000000100000002000000006553f100000111",
		NewProbePacket(pp))
}
