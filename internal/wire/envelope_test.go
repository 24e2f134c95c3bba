package wire

import (
	"reflect"
	"testing"
)

func TestEnvelopeRoundtrip(t *testing.T) {
	env := &Envelope{
		Version:       EnvelopeVersion,
		Op:            OpBatchSubscribe,
		CorrelationID: 0xDEADBEEF,
		SessionID:     0x1234,
		Body:          []byte{1, 2, 3, 4},
	}
	back, err := UnmarshalEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env, back) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", env, back)
	}
}

func TestEnvelopeRejectsBadVersionAndTrailing(t *testing.T) {
	env := &Envelope{Version: EnvelopeVersion, Op: OpQuery, Body: []byte{1}}
	raw := env.Marshal()
	if _, err := UnmarshalEnvelope(append(raw, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	raw[0] = 3
	if _, err := UnmarshalEnvelope(raw); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := UnmarshalEnvelope(raw[:5]); err == nil {
		t.Fatal("truncated envelope accepted")
	}
}

func TestBatchSubscribeRoundtrip(t *testing.T) {
	b := &BatchSubscribeRequest{
		Version:      CurrentVersion,
		ClientID:     9,
		Nonce:        0xABCD,
		AnchorSwitch: 1,
		AnchorPort:   2,
		Items: []BatchItem{
			{Kind: QueryReachableDestinations, Constraints: []FieldConstraint{{Field: FieldIPDst, Value: 5, Mask: 0xFF}}},
			{Kind: QueryPathLength, Param: "12"},
		},
		Signature: []byte{1, 2},
	}
	back, err := UnmarshalBatchSubscribeRequest(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, back) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", b, back)
	}
}

func TestBatchReplyRoundtrip(t *testing.T) {
	b := &BatchReply{
		Version: CurrentVersion, Nonce: 4, Status: StatusOK, SnapshotID: 7,
		Items: []BatchReplyItem{
			{SubID: 1, Status: StatusOK, Seq: 0, Detail: "ok"},
			{SubID: 0, Status: StatusError, Detail: "bad kind"},
		},
		Signature: []byte{3}, Quote: []byte{4},
	}
	back, err := UnmarshalBatchReply(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, back) {
		t.Fatalf("roundtrip mismatch:\n%+v\n%+v", b, back)
	}
}

func TestSessionResumeRoundtrip(t *testing.T) {
	req := &SessionResumeRequest{
		Version: CurrentVersion, ClientID: 2, Nonce: 5, SessionID: 0xEE,
		Entries:   []ResumeEntry{{SubID: 1, LastSeq: 3}, {SubID: 9, LastSeq: 0}},
		Signature: []byte{7},
	}
	back, err := UnmarshalSessionResumeRequest(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Fatalf("request roundtrip mismatch")
	}
	reply := &SessionResumeReply{
		Version: CurrentVersion, Nonce: 5, SessionID: 0xEE, Status: StatusOK, SnapshotID: 8,
		Entries: []ResumeVerdict{
			{SubID: 1, Kind: QueryIsolation, Status: StatusViolation, Seq: 4, Detail: "broken"},
			{SubID: 9, Status: StatusError, Detail: "unknown subscription"},
		},
		Signature: []byte{1}, Quote: []byte{2},
	}
	rback, err := UnmarshalSessionResumeReply(reply.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reply, rback) {
		t.Fatalf("reply roundtrip mismatch")
	}
}

func TestBatchItemNonceDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		n := BatchItemNonce(0x1111222233334444, i)
		if seen[n] {
			t.Fatalf("item nonce collision at %d", i)
		}
		seen[n] = true
	}
}
