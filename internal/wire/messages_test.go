package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func TestQueryRequestRoundTrip(t *testing.T) {
	q := &QueryRequest{
		Version:  CurrentVersion,
		Kind:     QueryIsolation,
		ClientID: 77,
		Nonce:    0xDEADBEEF12345678,
		Constraints: []FieldConstraint{
			{Field: FieldIPDst, Value: uint64(IPv4(10, 0, 0, 0)), Mask: 0xFF000000},
			{Field: FieldIPProto, Value: uint64(IPProtoUDP), Mask: 0xFF},
		},
		Param:          "eu-west",
		DeadlineMillis: 1500,
	}
	got, err := UnmarshalQueryRequest(q.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != q.Kind || got.ClientID != q.ClientID || got.Nonce != q.Nonce {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Constraints) != 2 || got.Constraints[0].Field != FieldIPDst {
		t.Errorf("constraints mismatch: %+v", got.Constraints)
	}
	if got.Param != "eu-west" || got.DeadlineMillis != 1500 {
		t.Errorf("param/deadline mismatch: %+v", got)
	}
}

func TestQueryRequestBadVersion(t *testing.T) {
	q := &QueryRequest{Version: 9, Kind: QueryIsolation}
	if _, err := UnmarshalQueryRequest(q.Marshal()); err == nil {
		t.Error("want version error")
	}
}

func TestQueryRequestTruncated(t *testing.T) {
	q := &QueryRequest{Version: CurrentVersion, Kind: QueryIsolation, Param: "x"}
	data := q.Marshal()
	for i := 0; i < len(data)-1; i++ {
		if _, err := UnmarshalQueryRequest(data[:i]); err == nil {
			t.Fatalf("truncation at %d not detected", i)
		}
	}
}

func TestQueryResponseRoundTrip(t *testing.T) {
	resp := &QueryResponse{
		Version: CurrentVersion,
		Kind:    QueryReachableDestinations,
		Nonce:   42,
		Status:  StatusViolation,
		Detail:  "unexpected endpoint",
		Endpoints: []Endpoint{
			{ClientID: 1, SwitchID: 3, Port: 9, Authenticated: true, Detail: "eu"},
			{ClientID: 0, SwitchID: 5, Port: 2, Authenticated: false, Detail: "unknown"},
		},
		Regions:       []string{"eu-west", "us-east"},
		AuthRequested: 2,
		AuthReplied:   1,
		SnapshotID:    991,
		Signature:     []byte{1, 2, 3},
		Quote:         []byte{4, 5},
	}
	got, err := UnmarshalQueryResponse(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusViolation || got.Nonce != 42 || got.SnapshotID != 991 {
		t.Errorf("core mismatch: %+v", got)
	}
	if len(got.Endpoints) != 2 || !got.Endpoints[0].Authenticated || got.Endpoints[1].Authenticated {
		t.Errorf("endpoints mismatch: %+v", got.Endpoints)
	}
	if len(got.Regions) != 2 || got.Regions[0] != "eu-west" {
		t.Errorf("regions mismatch: %v", got.Regions)
	}
	if got.AuthRequested != 2 || got.AuthReplied != 1 {
		t.Errorf("auth counters mismatch: %+v", got)
	}
	if !bytes.Equal(got.Signature, resp.Signature) || !bytes.Equal(got.Quote, resp.Quote) {
		t.Error("signature/quote mismatch")
	}
}

func TestSigningBytesExcludesSignature(t *testing.T) {
	resp := &QueryResponse{Version: 1, Kind: QueryIsolation, Nonce: 7, Status: StatusOK}
	a := resp.SigningBytes()
	resp.Signature = []byte("sig")
	resp.Quote = []byte("quote")
	b := resp.SigningBytes()
	if !bytes.Equal(a, b) {
		t.Error("SigningBytes must not depend on signature/quote")
	}
}

func TestAuthRequestReplyRoundTrip(t *testing.T) {
	ar := &AuthRequest{QueryNonce: 11, Challenge: 22, ServerKey: []byte{9, 9}}
	gotReq, err := UnmarshalAuthRequest(ar.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if gotReq.QueryNonce != 11 || gotReq.Challenge != 22 || !bytes.Equal(gotReq.ServerKey, []byte{9, 9}) {
		t.Errorf("auth request mismatch: %+v", gotReq)
	}

	rep := &AuthReply{QueryNonce: 11, Challenge: 22, ClientID: 5, Signature: []byte("s"), PubKey: []byte("p")}
	gotRep, err := UnmarshalAuthReply(rep.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if gotRep.ClientID != 5 || !bytes.Equal(gotRep.Signature, []byte("s")) {
		t.Errorf("auth reply mismatch: %+v", gotRep)
	}
	if !bytes.Equal(rep.SigningBytes(), gotRep.SigningBytes()) {
		t.Error("signing bytes differ across round trip")
	}
}

func TestProbePayloadRoundTrip(t *testing.T) {
	pp := &ProbePayload{ProbeID: 1234, SrcSwitch: 7, SrcPort: 3, IssuedUnix: 1717171717, MAC: []byte{0xaa}}
	got, err := UnmarshalProbePayload(pp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.ProbeID != 1234 || got.SrcSwitch != 7 || got.SrcPort != 3 || got.IssuedUnix != 1717171717 {
		t.Errorf("probe mismatch: %+v", got)
	}
	if !bytes.Equal(pp.SigningBytes(), got.SigningBytes()) {
		t.Error("probe signing bytes differ")
	}
}

func TestPacketConstructors(t *testing.T) {
	// The in-band authentication round rides the envelope like every other
	// op: the challenge is an RVaaS → client frame, the reply a client →
	// RVaaS frame the ingress interception rule matches.
	ar := &AuthRequest{QueryNonce: 99, Challenge: 1, ServerKey: []byte{7}}
	chal, err := Unmarshal(NewEnvelopeReplyPacket(0xBB, IPv4(10, 0, 0, 2), &Envelope{
		Version: EnvelopeVersion, Op: OpAuthChallenge, CorrelationID: ar.Challenge, Body: ar.Marshal(),
	}).Marshal())
	if err != nil || !chal.IsRVaaSV2Reply() || chal.IsRVaaSV2() {
		t.Fatalf("auth challenge frame not recognized: %v %v", chal, err)
	}
	env, err := UnmarshalEnvelope(chal.Payload)
	if err != nil || env.Op != OpAuthChallenge {
		t.Fatalf("auth challenge envelope: %+v %v", env, err)
	}
	if got, err := UnmarshalAuthRequest(env.Body); err != nil || got.QueryNonce != 99 || got.Challenge != 1 {
		t.Errorf("auth challenge body decode: %v %+v", err, got)
	}

	rep := &AuthReply{QueryNonce: 99, Challenge: 1, ClientID: 2, Signature: []byte{3}, PubKey: []byte{4}}
	reply, err := Unmarshal(NewEnvelopePacket(0xCC, IPv4(10, 0, 0, 3), &Envelope{
		Version: EnvelopeVersion, Op: OpAuthReply, CorrelationID: rep.Challenge, SessionID: 5, Body: rep.Marshal(),
	}).Marshal())
	if err != nil || !reply.IsRVaaSV2() || reply.IsRVaaSV2Reply() {
		t.Fatalf("auth reply frame not recognized: %v %v", reply, err)
	}
	env, err = UnmarshalEnvelope(reply.Payload)
	if err != nil || env.Op != OpAuthReply || env.SessionID != 5 {
		t.Fatalf("auth reply envelope: %+v %v", env, err)
	}
	if got, err := UnmarshalAuthReply(env.Body); err != nil || got.ClientID != 2 {
		t.Errorf("auth reply body decode: %v %+v", err, got)
	}

	probe := NewProbePacket(&ProbePayload{ProbeID: 5})
	if !probe.IsProbe() {
		t.Error("probe packet not recognized")
	}
}

func TestQueryKindStrings(t *testing.T) {
	kinds := []QueryKind{
		QueryReachableDestinations, QueryReachingSources, QueryIsolation,
		QueryGeoRegions, QueryPathLength, QueryWaypointAvoidance,
		QueryNeutrality, QueryTransferFunction,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Errorf("duplicate kind string %q", s)
		}
		seen[s] = true
	}
	if QueryKind(200).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestResponseStatusStrings(t *testing.T) {
	for _, s := range []ResponseStatus{StatusOK, StatusViolation, StatusError, StatusUnsupported} {
		if s.String() == "" {
			t.Errorf("status %d unnamed", s)
		}
	}
}

func TestEphemeralPortAvoidsWellKnown(t *testing.T) {
	for n := uint64(0); n < 4096; n++ {
		if p := ephemeralPort(n * 0x9E3779B97F4A7C15); p < 1024 {
			t.Fatalf("ephemeral port %d < 1024 for nonce %d", p, n)
		}
	}
}

// TestEphemeralPortAvoidsMagicRange sweeps nonces whose raw fold lands on
// the magic port: a collision would make a client frame classify as an
// RVaaS reply at the agent.
func TestEphemeralPortAvoidsMagicRange(t *testing.T) {
	// Exhaustive over the low 16 bits (which fold to themselves).
	for n := uint64(0); n < 0x10000; n++ {
		if p := ephemeralPort(n); p == PortRVaaSV2 {
			t.Fatalf("nonce %#x yields the magic port %#x", n, p)
		}
	}
}

func TestSubscribeRequestRoundTrip(t *testing.T) {
	rm := &SubscribeRequest{Version: CurrentVersion, Op: SubOpRemove, ClientID: 9, Nonce: 4, SubID: 31,
		Signature: []byte{1, 2, 3}}
	got, err := UnmarshalSubscribeRequest(rm.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rm) {
		t.Errorf("remove mismatch: %+v", got)
	}

	// Removal by registration nonce (no SubID known).
	ref := &SubscribeRequest{Version: CurrentVersion, Op: SubOpRemove, ClientID: 9, Nonce: 5,
		RefNonce: 0xABCDEF0123456789, Signature: []byte{4}}
	got, err = UnmarshalSubscribeRequest(ref.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("remove-by-nonce mismatch: %+v", got)
	}
}

func TestSubscribeRequestBadVersion(t *testing.T) {
	s := &SubscribeRequest{Version: 7, Op: SubOpRemove}
	if _, err := UnmarshalSubscribeRequest(s.Marshal()); err == nil {
		t.Error("want version error")
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := &Notification{
		Version:    CurrentVersion,
		Event:      NotifyViolation,
		Kind:       QueryIsolation,
		Status:     StatusViolation,
		SubID:      12,
		Nonce:      0x1122334455667788,
		Seq:        3,
		SnapshotID: 99,
		Detail:     "isolation broken",
		Signature:  bytes.Repeat([]byte{0xAB}, 64),
		Quote:      []byte{1, 2, 3},
	}
	got, err := UnmarshalNotification(n.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Event != NotifyViolation || got.Kind != QueryIsolation || got.Status != StatusViolation {
		t.Errorf("classification mismatch: %+v", got)
	}
	if got.SubID != 12 || got.Nonce != n.Nonce || got.Seq != 3 || got.SnapshotID != 99 {
		t.Errorf("ids mismatch: %+v", got)
	}
	if got.Detail != n.Detail || !bytes.Equal(got.Signature, n.Signature) || !bytes.Equal(got.Quote, n.Quote) {
		t.Errorf("payload mismatch: %+v", got)
	}
	// The signature must cover everything except itself and the quote.
	if !bytes.Equal(n.SigningBytes(), got.SigningBytes()) {
		t.Error("signing bytes not stable across a round trip")
	}
	if bytes.Contains(n.SigningBytes(), n.Signature) {
		t.Error("signing bytes include the signature")
	}
}

func TestSubscriptionPacketClassification(t *testing.T) {
	b := &BatchSubscribeRequest{Version: CurrentVersion, Nonce: 5, Items: []BatchItem{{Kind: QueryReachableDestinations}}}
	sub := NewEnvelopePacket(0xAA, IPv4(10, 0, 0, 1), &Envelope{
		Version: EnvelopeVersion, Op: OpBatchSubscribe, CorrelationID: b.Nonce, Body: b.Marshal(),
	})
	if !sub.IsRVaaSV2() || sub.IsRVaaSV2Reply() {
		t.Errorf("subscribe packet misclassified: %v", sub)
	}
	ack := &Notification{Version: CurrentVersion, Event: NotifyAck, Nonce: 5}
	n := NewEnvelopeReplyPacket(0xBB, IPv4(10, 0, 0, 2), &Envelope{
		Version: EnvelopeVersion, Op: OpNotify, CorrelationID: ack.Nonce, Body: ack.Marshal(),
	})
	if !n.IsRVaaSV2Reply() || n.IsRVaaSV2() {
		t.Errorf("notification packet misclassified: %v", n)
	}
	// Round trip through the on-wire encoding keeps the classification.
	back, err := Unmarshal(n.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsRVaaSV2Reply() {
		t.Error("notification lost classification through Marshal/Unmarshal")
	}
}

func TestNotifyEventStrings(t *testing.T) {
	for ev, want := range map[NotifyEvent]string{
		NotifyAck: "ack", NotifyViolation: "violation",
		NotifyRecovery: "recovery", NotifyError: "error",
		NotifyEvent(99): "event(99)",
	} {
		if ev.String() != want {
			t.Errorf("%d.String() = %q, want %q", ev, ev.String(), want)
		}
	}
}
