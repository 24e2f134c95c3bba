package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Every client-facing operation travels as one versioned Envelope on one
// magic port pair (the paper's single magic header, §IV-A3); the Op field
// selects the body codec. The envelope carries three things beside the op:
//
//   - versioning: the leading byte names the envelope revision, so future
//     revisions can change framing without claiming another magic port;
//   - sessions: SessionID binds an operation to a client session, which is
//     what durable subscription restore resumes after a controller restart
//     (OpSessionResume);
//   - batching: OpBatchSubscribe registers N invariants in ONE signed
//     exchange instead of N round-trips (a single subscribe is a one-item
//     batch), with u32 framing because batch bodies routinely exceed the
//     u16 limits of the single-op body codecs.

// EnvelopeVersion is the current protocol envelope revision.
const EnvelopeVersion = 2

// Op selects the operation (and body codec) an envelope carries.
type Op uint8

// Envelope operations. Request ops are client → RVaaS; reply ops RVaaS →
// client. The values are wire bytes: an op is never renumbered, and a
// retired op's number stays reserved rather than reused — 3 (subscribe),
// 5 (query-verdict), 9 and 10 (batch-query and its reply). RVaaS ignores a
// frame carrying one.
const (
	// OpQuery carries a QueryRequest; answered by OpQueryResponse
	// (QueryResponse).
	OpQuery         Op = 1
	OpQueryResponse Op = 2
	// OpUnsubscribe carries a SubscribeRequest (SubOpRemove), acknowledged
	// by an OpNotify envelope (Notification).
	OpUnsubscribe Op = 4
	// OpNotify carries a Notification acknowledging (or rejecting) one
	// removal. Verdict transitions are never pushed in one: they travel as
	// OpNotifyBatch.
	OpNotify Op = 6
	// OpBatchSubscribe registers N invariants under one client signature;
	// answered by OpBatchReply (BatchReply, one item per request item). It
	// is the only registration op: a single subscribe is a one-item batch.
	OpBatchSubscribe Op = 7
	OpBatchReply     Op = 8
	// OpSessionResume resynchronizes a client session after notification
	// loss or a controller restart: the signed OpSessionResumeReply carries
	// the current verdict and sequence number of every subscription in the
	// session, so the client rebases instead of blindly re-subscribing. It
	// is the only verdict read.
	OpSessionResume      Op = 11
	OpSessionResumeReply Op = 12
	// OpChunk is one fragment of a logical envelope too large for the UDP
	// frame budget: the outer envelope's CorrelationID is the continuation
	// id shared by every fragment of the chain, and the body (Chunk) names
	// the inner op plus this fragment's position. See chunk.go.
	OpChunk Op = 13
	// OpAuthChallenge carries an AuthRequest RVaaS injects toward an
	// endpoint discovered by logical verification; the agent answers with
	// OpAuthReply (AuthReply) from the same access point — the in-band
	// authentication round of §IV-A3.
	OpAuthChallenge Op = 14
	OpAuthReply     Op = 15
	// OpNotifyBatch carries a NotifyBatch: every violation/recovery one
	// re-verification pass produced for one client session at one access
	// point, under a single enclave signature. It is the only push form —
	// a lone transition is a one-item batch.
	OpNotifyBatch Op = 16
)

// String names the op.
func (op Op) String() string {
	switch op {
	case OpQuery:
		return "query"
	case OpQueryResponse:
		return "query-response"
	case OpUnsubscribe:
		return "unsubscribe"
	case OpNotify:
		return "notify"
	case OpBatchSubscribe:
		return "batch-subscribe"
	case OpBatchReply:
		return "batch-reply"
	case OpSessionResume:
		return "session-resume"
	case OpSessionResumeReply:
		return "session-resume-reply"
	case OpChunk:
		return "chunk"
	case OpAuthChallenge:
		return "auth-challenge"
	case OpAuthReply:
		return "auth-reply"
	case OpNotifyBatch:
		return "notify-batch"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Envelope is the versioned client protocol frame: one shape for every
// operation.
type Envelope struct {
	Version uint8
	Op      Op
	// CorrelationID pairs a reply with its request (and derives the
	// pseudo-ephemeral reply port). By convention it equals the body's
	// nonce.
	CorrelationID uint64
	// SessionID names the client session the operation belongs to.
	// Subscriptions registered under a session are resumable via
	// OpSessionResume after a controller restart.
	SessionID uint64
	Body      []byte
}

// Envelope decode errors.
var (
	errBadEnvelopeVersion = errors.New("wire: unsupported envelope version")
	errEnvelopeTrailing   = errors.New("wire: trailing bytes after envelope")
)

// Marshal encodes the envelope (always at EnvelopeVersion framing).
func (e *Envelope) Marshal() []byte {
	var w writer
	w.u8(e.Version)
	w.u8(uint8(e.Op))
	w.u64(e.CorrelationID)
	w.u64(e.SessionID)
	w.bytes32(e.Body)
	return w.buf
}

// UnmarshalEnvelope decodes an envelope. Unlike the lenient body codecs it
// is strict: unknown versions and trailing bytes are rejected, so a
// truncated or padded frame can never half-parse.
func UnmarshalEnvelope(data []byte) (*Envelope, error) {
	r := reader{buf: data}
	e := &Envelope{
		Version:       r.u8(),
		Op:            Op(r.u8()),
		CorrelationID: r.u64(),
		SessionID:     r.u64(),
	}
	e.Body = r.bytes32()
	if r.err != nil {
		return nil, r.err
	}
	if e.Version != EnvelopeVersion {
		return nil, errBadEnvelopeVersion
	}
	if r.off != len(data) {
		return nil, errEnvelopeTrailing
	}
	return e, nil
}

// SessionSigningBytes binds an operation's client signature to the
// envelope session it rides in: the signed message is the body's canonical
// bytes followed by the session id, so neither rewriting nor zeroing the
// (unsigned) envelope header field can move a subscription into a
// different session.
func SessionSigningBytes(signing []byte, sessionID uint64) []byte {
	out := make([]byte, 0, len(signing)+8)
	out = append(out, signing...)
	return binary.BigEndian.AppendUint64(out, sessionID)
}

// ---------------------------------------------------------- batch bodies --

// BatchItem is one invariant in a batch registration, described with the
// one-shot query vocabulary (the batch signature and anchor cover every
// item).
type BatchItem struct {
	Kind        QueryKind
	Constraints []FieldConstraint
	Param       string
}

// BatchSubscribeRequest registers N standing invariants in one signed
// exchange. One client signature covers the whole batch, and one anchor
// binding applies to every item — the amortization that makes registering
// 10⁴ invariants a single round-trip instead of 10⁴.
type BatchSubscribeRequest struct {
	Version  uint8
	ClientID uint64
	// Nonce correlates the reply and feeds replay protection (the batch
	// consumes ONE nonce regardless of item count; per-item notification
	// routing nonces are derived via BatchItemNonce).
	Nonce        uint64
	AnchorSwitch uint32
	AnchorPort   uint32
	Items        []BatchItem
	// Signature is the client's Ed25519 signature over SigningBytes().
	Signature []byte
}

// BatchItemNonce derives the registration nonce of batch item i from the
// batch nonce. Both sides compute it, so pushes for a brand-new batch
// subscription route at the client before the batch reply is even
// processed, and a client whose reply was lost can remove the item by it
// (SubscribeRequest.RefNonce).
func BatchItemNonce(batchNonce uint64, i int) uint64 {
	return batchNonce ^ (uint64(i) + 1)
}

// SigningBytes returns the canonical bytes covered by the signature.
func (b *BatchSubscribeRequest) SigningBytes() []byte { return b.core() }

func (b *BatchSubscribeRequest) core() []byte {
	var w writer
	w.u8(b.Version)
	w.u64(b.ClientID)
	w.u64(b.Nonce)
	w.u32(b.AnchorSwitch)
	w.u32(b.AnchorPort)
	w.u32(uint32(len(b.Items)))
	for _, it := range b.Items {
		w.u8(uint8(it.Kind))
		n := w.count16(len(it.Constraints))
		for _, c := range it.Constraints[:n] {
			w.u8(uint8(c.Field))
			w.u64(c.Value)
			w.u64(c.Mask)
		}
		w.str(it.Param)
	}
	return w.buf
}

// Marshal encodes the batch request including the signature.
func (b *BatchSubscribeRequest) Marshal() []byte {
	w := writer{buf: b.core()}
	w.bytesN(b.Signature)
	return w.buf
}

// UnmarshalBatchSubscribeRequest decodes a batch registration.
func UnmarshalBatchSubscribeRequest(data []byte) (*BatchSubscribeRequest, error) {
	r := reader{buf: data}
	b := &BatchSubscribeRequest{
		Version:      r.u8(),
		ClientID:     r.u64(),
		Nonce:        r.u64(),
		AnchorSwitch: r.u32(),
		AnchorPort:   r.u32(),
	}
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		it := BatchItem{Kind: QueryKind(r.u8())}
		nc := int(r.u16())
		for j := 0; j < nc && r.err == nil; j++ {
			it.Constraints = append(it.Constraints, FieldConstraint{
				Field: Field(r.u8()),
				Value: r.u64(),
				Mask:  r.u64(),
			})
		}
		it.Param = r.str()
		b.Items = append(b.Items, it)
	}
	b.Signature = r.bytesN()
	if r.err != nil {
		return nil, r.err
	}
	if b.Version != CurrentVersion {
		return nil, errBadVersion
	}
	return b, nil
}

// BatchReplyItem is one registration outcome, index-aligned with the
// request's Items. StatusError marks a rejected item (SubID 0); otherwise
// SubID names the new subscription and Status/Detail/Seq carry its initial
// verdict, exactly like a single subscribe ack.
type BatchReplyItem struct {
	SubID  uint64
	Status ResponseStatus
	Seq    uint64
	Detail string
}

// BatchReply acknowledges a batch registration. One enclave signature
// covers every item — clients verify 1 signature for N registrations.
type BatchReply struct {
	Version uint8
	Nonce   uint64
	// Status is the batch-level outcome; StatusError (with Detail) marks a
	// rejected batch (bad signature, bad anchor) whose Items are empty.
	Status     ResponseStatus
	Detail     string
	SnapshotID uint64
	Items      []BatchReplyItem
	Signature  []byte
	Quote      []byte
}

// SigningBytes returns the canonical bytes covered by the signature.
func (b *BatchReply) SigningBytes() []byte { return b.core() }

func (b *BatchReply) core() []byte {
	var w writer
	w.u8(b.Version)
	w.u64(b.Nonce)
	w.u8(uint8(b.Status))
	w.str(b.Detail)
	w.u64(b.SnapshotID)
	w.u32(uint32(len(b.Items)))
	for _, it := range b.Items {
		w.u64(it.SubID)
		w.u8(uint8(it.Status))
		w.u64(it.Seq)
		w.str(it.Detail)
	}
	return w.buf
}

// Marshal encodes the batch reply including signature and quote.
func (b *BatchReply) Marshal() []byte {
	w := writer{buf: b.core()}
	w.bytesN(b.Signature)
	w.bytesN(b.Quote)
	return w.buf
}

// UnmarshalBatchReply decodes a batch reply.
func UnmarshalBatchReply(data []byte) (*BatchReply, error) {
	r := reader{buf: data}
	b := &BatchReply{
		Version: r.u8(),
		Nonce:   r.u64(),
		Status:  ResponseStatus(r.u8()),
		Detail:  r.str(),
	}
	b.SnapshotID = r.u64()
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		it := BatchReplyItem{
			SubID:  r.u64(),
			Status: ResponseStatus(r.u8()),
			Seq:    r.u64(),
		}
		it.Detail = r.str()
		b.Items = append(b.Items, it)
	}
	b.Signature = r.bytesN()
	b.Quote = r.bytesN()
	if r.err != nil {
		return nil, r.err
	}
	return b, nil
}

// -------------------------------------------------------- session resume --

// ResumeEntry names one subscription the client knows, with the highest
// notification sequence it has delivered — the server answers with the
// current verdict so the client can tell exactly what it missed.
type ResumeEntry struct {
	SubID   uint64
	LastSeq uint64
}

// SessionResumeRequest resynchronizes a client session in one signed
// exchange: after notification loss or a controller restart the client
// lists the subscriptions it holds, and the signed reply carries each one's
// current verdict and sequence number. Resume is read-only on the server
// but reveals verdicts, so it is signed, and each entry is anchor-checked:
// a captured resume frame replayed from a foreign ingress learns no
// verdict.
type SessionResumeRequest struct {
	Version   uint8
	ClientID  uint64
	Nonce     uint64
	SessionID uint64
	Entries   []ResumeEntry
	// Signature is the client's Ed25519 signature over SigningBytes().
	Signature []byte
}

// SigningBytes returns the canonical bytes covered by the signature.
func (s *SessionResumeRequest) SigningBytes() []byte { return s.core() }

func (s *SessionResumeRequest) core() []byte {
	var w writer
	w.u8(s.Version)
	w.u64(s.ClientID)
	w.u64(s.Nonce)
	w.u64(s.SessionID)
	w.u32(uint32(len(s.Entries)))
	for _, e := range s.Entries {
		w.u64(e.SubID)
		w.u64(e.LastSeq)
	}
	return w.buf
}

// Marshal encodes the resume request including the signature.
func (s *SessionResumeRequest) Marshal() []byte {
	w := writer{buf: s.core()}
	w.bytesN(s.Signature)
	return w.buf
}

// UnmarshalSessionResumeRequest decodes a resume request.
func UnmarshalSessionResumeRequest(data []byte) (*SessionResumeRequest, error) {
	r := reader{buf: data}
	s := &SessionResumeRequest{
		Version:   r.u8(),
		ClientID:  r.u64(),
		Nonce:     r.u64(),
		SessionID: r.u64(),
	}
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		s.Entries = append(s.Entries, ResumeEntry{SubID: r.u64(), LastSeq: r.u64()})
	}
	s.Signature = r.bytesN()
	if r.err != nil {
		return nil, r.err
	}
	if s.Version != CurrentVersion {
		return nil, errBadVersion
	}
	return s, nil
}

// ResumeVerdict is one subscription's state in a resume reply. StatusOK and
// StatusViolation carry a live verdict the client rebases on; StatusError
// marks a subscription the server cannot resume (unknown id, or an anchor
// that does not match the requesting ingress), which the client heals by
// re-subscribing that one invariant.
type ResumeVerdict struct {
	SubID  uint64
	Kind   QueryKind
	Status ResponseStatus
	Seq    uint64
	Detail string
}

// SessionResumeReply answers a session resume with the full session state
// under one enclave signature.
type SessionResumeReply struct {
	Version    uint8
	Nonce      uint64
	SessionID  uint64
	Status     ResponseStatus
	Detail     string
	SnapshotID uint64
	Entries    []ResumeVerdict
	Signature  []byte
	Quote      []byte
}

// SigningBytes returns the canonical bytes covered by the signature.
func (s *SessionResumeReply) SigningBytes() []byte { return s.core() }

func (s *SessionResumeReply) core() []byte {
	var w writer
	w.u8(s.Version)
	w.u64(s.Nonce)
	w.u64(s.SessionID)
	w.u8(uint8(s.Status))
	w.str(s.Detail)
	w.u64(s.SnapshotID)
	w.u32(uint32(len(s.Entries)))
	for _, e := range s.Entries {
		w.u64(e.SubID)
		w.u8(uint8(e.Kind))
		w.u8(uint8(e.Status))
		w.u64(e.Seq)
		w.str(e.Detail)
	}
	return w.buf
}

// Marshal encodes the reply including signature and quote.
func (s *SessionResumeReply) Marshal() []byte {
	w := writer{buf: s.core()}
	w.bytesN(s.Signature)
	w.bytesN(s.Quote)
	return w.buf
}

// UnmarshalSessionResumeReply decodes a resume reply.
func UnmarshalSessionResumeReply(data []byte) (*SessionResumeReply, error) {
	r := reader{buf: data}
	s := &SessionResumeReply{
		Version:   r.u8(),
		Nonce:     r.u64(),
		SessionID: r.u64(),
		Status:    ResponseStatus(r.u8()),
		Detail:    r.str(),
	}
	s.SnapshotID = r.u64()
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		e := ResumeVerdict{
			SubID:  r.u64(),
			Kind:   QueryKind(r.u8()),
			Status: ResponseStatus(r.u8()),
			Seq:    r.u64(),
		}
		e.Detail = r.str()
		s.Entries = append(s.Entries, e)
	}
	s.Signature = r.bytesN()
	s.Quote = r.bytesN()
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}
