package wire

import (
	"bytes"
	"testing"
)

// Fuzz harness for every unmarshal path reachable from network input. The
// codecs use bounds-checked sticky-error readers, so the properties under
// test are: no panics/OOM on arbitrary bytes, and decode → encode → decode
// stability for everything that decodes (a frame the server accepts must
// mean the same thing when re-emitted).

// fuzzSeeds returns well-formed frames of every message kind, used both as
// corpus seeds and by the roundtrip smoke test.
func fuzzSeeds() [][]byte {
	q := &QueryRequest{Version: 1, Kind: QueryIsolation, ClientID: 3, Nonce: 99,
		Constraints: []FieldConstraint{{Field: FieldIPDst, Value: 7, Mask: 0xFF}}, Param: "x", DeadlineMillis: 9}
	resp := &QueryResponse{Version: 1, Kind: QueryIsolation, Nonce: 99, Status: StatusViolation,
		Detail: "d", Endpoints: []Endpoint{{ClientID: 1, SwitchID: 2, Port: 3, Detail: "e"}},
		Regions: []string{"eu"}, SnapshotID: 4, Signature: []byte{1}, Quote: []byte{2}}
	sr := &SubscribeRequest{Version: 1, Op: SubOpRemove, ClientID: 3, Nonce: 98, SubID: 5, RefNonce: 96,
		Signature: []byte{3}}
	n := &Notification{Version: 1, Event: NotifyViolation, Kind: QueryPathLength, Status: StatusViolation,
		SubID: 5, Nonce: 98, Seq: 2, SnapshotID: 6, Detail: "v", Signature: []byte{4}, Quote: []byte{5}}
	push := &NotifyBatch{Version: 1, SnapshotID: 6, Items: []NotifyItem{
		{Event: NotifyViolation, Kind: QueryPathLength, Status: StatusViolation, SubID: 5, Nonce: 98, Seq: 2, Detail: "v"},
		{Event: NotifyRecovery, Kind: QueryIsolation, Status: StatusOK, SubID: 6, Nonce: 92, Seq: 1},
	}, Signature: []byte{4}, Quote: []byte{5}}
	pushEnv := &Envelope{Version: EnvelopeVersion, Op: OpNotifyBatch, CorrelationID: 91, SessionID: 12, Body: push.Marshal()}
	pushChunk := &Chunk{InnerOp: OpNotifyBatch, Index: 1, Total: 2, Fragment: push.Marshal()[16:]}
	batch := &BatchSubscribeRequest{Version: CurrentVersion, ClientID: 3, Nonce: 97, AnchorSwitch: 1, AnchorPort: 2,
		Items: []BatchItem{{Kind: QueryReachableDestinations}, {Kind: QueryPathLength, Param: "3"}}, Signature: []byte{6}}
	batchReply := &BatchReply{Version: CurrentVersion, Nonce: 97, Status: StatusOK, SnapshotID: 6,
		Items:     []BatchReplyItem{{SubID: 5, Status: StatusOK, Seq: 1, Detail: "ok"}, {Status: StatusError, Detail: "bad"}},
		Signature: []byte{8}, Quote: []byte{9}}
	resume := &SessionResumeRequest{Version: CurrentVersion, ClientID: 3, Nonce: 94, SessionID: 12,
		Entries: []ResumeEntry{{SubID: 1, LastSeq: 2}}, Signature: []byte{7}}
	env := &Envelope{Version: EnvelopeVersion, Op: OpUnsubscribe, CorrelationID: 98, SessionID: 12, Body: sr.Marshal()}
	chunk := &Chunk{InnerOp: OpBatchSubscribe, Index: 0, Total: 2, Fragment: batch.Marshal()[:16]}
	chunkEnv := &Envelope{Version: EnvelopeVersion, Op: OpChunk, CorrelationID: 97, SessionID: 12, Body: chunk.Marshal()}
	ar := &AuthRequest{QueryNonce: 99, Challenge: 93, ServerKey: []byte{8}}
	authChal := &Envelope{Version: EnvelopeVersion, Op: OpAuthChallenge, CorrelationID: 93, Body: ar.Marshal()}
	rep := &AuthReply{QueryNonce: 99, Challenge: 93, ClientID: 3, Signature: []byte{9}, PubKey: []byte{10}}
	authRep := &Envelope{Version: EnvelopeVersion, Op: OpAuthReply, CorrelationID: 93, SessionID: 12, Body: rep.Marshal()}

	return [][]byte{
		q.Marshal(),
		resp.Marshal(),
		sr.Marshal(),
		n.Marshal(),
		push.Marshal(),
		pushEnv.Marshal(),
		pushChunk.Marshal(),
		NewEnvelopeReplyPacket(2, 3, pushEnv).Marshal(),
		batch.Marshal(),
		batchReply.Marshal(),
		resume.Marshal(),
		env.Marshal(),
		chunk.Marshal(),
		chunkEnv.Marshal(),
		ar.Marshal(),
		rep.Marshal(),
		authChal.Marshal(),
		authRep.Marshal(),
		NewEnvelopePacket(2, 3, env).Marshal(),
		NewEnvelopeReplyPacket(2, 3, authChal).Marshal(),
		NewEnvelopePacket(2, 3, authRep).Marshal(),
	}
}

// FuzzEnvelopeRoundtrip feeds arbitrary bytes through every payload
// decoder and checks re-encode stability for whatever decodes.
func FuzzEnvelopeRoundtrip(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if env, err := UnmarshalEnvelope(data); err == nil {
			re, err := UnmarshalEnvelope(env.Marshal())
			if err != nil {
				t.Fatalf("envelope re-decode failed: %v", err)
			}
			if !bytes.Equal(re.Marshal(), env.Marshal()) {
				t.Fatal("envelope re-encode not stable")
			}
		}
		if c, err := UnmarshalChunk(data); err == nil {
			re, err := UnmarshalChunk(c.Marshal())
			if err != nil {
				t.Fatalf("chunk re-decode failed: %v", err)
			}
			if !bytes.Equal(re.Marshal(), c.Marshal()) {
				t.Fatal("chunk re-encode not stable")
			}
		}
		if q, err := UnmarshalQueryRequest(data); err == nil {
			if _, err := UnmarshalQueryRequest(q.Marshal()); err != nil {
				t.Fatalf("query request re-decode failed: %v", err)
			}
		}
		if r, err := UnmarshalQueryResponse(data); err == nil {
			if _, err := UnmarshalQueryResponse(r.Marshal()); err != nil {
				t.Fatalf("query response re-decode failed: %v", err)
			}
		}
		if s, err := UnmarshalSubscribeRequest(data); err == nil {
			if _, err := UnmarshalSubscribeRequest(s.Marshal()); err != nil {
				t.Fatalf("subscribe request re-decode failed: %v", err)
			}
		}
		if n, err := UnmarshalNotification(data); err == nil {
			if _, err := UnmarshalNotification(n.Marshal()); err != nil {
				t.Fatalf("notification re-decode failed: %v", err)
			}
		}
		if b, err := UnmarshalNotifyBatch(data); err == nil {
			re, err := UnmarshalNotifyBatch(b.Marshal())
			if err != nil {
				t.Fatalf("notify batch re-decode failed: %v", err)
			}
			// What was verified is what is delivered: the signed bytes of an
			// accepted batch must not move when it is re-emitted.
			if !bytes.Equal(re.SigningBytes(), b.SigningBytes()) {
				t.Fatal("notify batch signing bytes not stable across re-encode")
			}
		}
		if b, err := UnmarshalBatchSubscribeRequest(data); err == nil {
			if _, err := UnmarshalBatchSubscribeRequest(b.Marshal()); err != nil {
				t.Fatalf("batch subscribe re-decode failed: %v", err)
			}
		}
		if b, err := UnmarshalBatchReply(data); err == nil {
			if _, err := UnmarshalBatchReply(b.Marshal()); err != nil {
				t.Fatalf("batch reply re-decode failed: %v", err)
			}
		}
		if r, err := UnmarshalSessionResumeRequest(data); err == nil {
			if _, err := UnmarshalSessionResumeRequest(r.Marshal()); err != nil {
				t.Fatalf("resume request re-decode failed: %v", err)
			}
		}
		if r, err := UnmarshalSessionResumeReply(data); err == nil {
			if _, err := UnmarshalSessionResumeReply(r.Marshal()); err != nil {
				t.Fatalf("resume reply re-decode failed: %v", err)
			}
		}
		if a, err := UnmarshalAuthRequest(data); err == nil {
			if _, err := UnmarshalAuthRequest(a.Marshal()); err != nil {
				t.Fatalf("auth request re-decode failed: %v", err)
			}
		}
		if a, err := UnmarshalAuthReply(data); err == nil {
			if _, err := UnmarshalAuthReply(a.Marshal()); err != nil {
				t.Fatalf("auth reply re-decode failed: %v", err)
			}
		}
	})
}

// FuzzPacketUnmarshal feeds arbitrary bytes through the L2/L3/L4 frame
// parser: no panics, and accepted frames re-encode to decodable frames
// with identical classification.
func FuzzPacketUnmarshal(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		back, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if p.IsRVaaSV2() != back.IsRVaaSV2() ||
			p.IsRVaaSV2Reply() != back.IsRVaaSV2Reply() {
			t.Fatal("classification changed across re-encode")
		}
	})
}
