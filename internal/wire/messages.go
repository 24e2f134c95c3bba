package wire

import (
	"errors"
	"fmt"
)

// QueryKind enumerates the verification queries RVaaS supports (paper §IV-A:
// connectivity, path lengths, traversed geographic regions, fairness, and a
// compact transfer-function representation).
type QueryKind uint8

// Supported query kinds.
const (
	QueryReachableDestinations QueryKind = iota + 1
	QueryReachingSources
	QueryIsolation
	QueryGeoRegions
	QueryPathLength
	QueryWaypointAvoidance
	QueryNeutrality
	QueryTransferFunction
)

// String names the query kind.
func (k QueryKind) String() string {
	switch k {
	case QueryReachableDestinations:
		return "reachable-destinations"
	case QueryReachingSources:
		return "reaching-sources"
	case QueryIsolation:
		return "isolation"
	case QueryGeoRegions:
		return "geo-regions"
	case QueryPathLength:
		return "path-length"
	case QueryWaypointAvoidance:
		return "waypoint-avoidance"
	case QueryNeutrality:
		return "neutrality"
	case QueryTransferFunction:
		return "transfer-function"
	}
	return fmt.Sprintf("query(%d)", uint8(k))
}

// FieldConstraint restricts one packet field in a query's header-space scope
// ("constrained to traffic within a certain header space", §IV-A).
type FieldConstraint struct {
	Field Field
	Value uint64
	Mask  uint64
}

// QueryRequest is the client → RVaaS query payload (the body of an OpQuery
// envelope, intercepted at the ingress switch as a Packet-In).
type QueryRequest struct {
	Version     uint8
	Kind        QueryKind
	ClientID    uint64
	Nonce       uint64
	Constraints []FieldConstraint
	// Param carries kind-specific data: the max path length for
	// QueryPathLength, the forbidden region name for QueryWaypointAvoidance
	// and QueryGeoRegions, etc.
	Param string
	// Deadline is the client's per-query auth collection budget in
	// milliseconds; 0 lets the server choose.
	DeadlineMillis uint32
}

// CurrentVersion is the query protocol version.
const CurrentVersion = 1

var errBadVersion = errors.New("wire: unsupported query version")

// Marshal encodes the request.
func (q *QueryRequest) Marshal() []byte {
	var w writer
	w.u8(q.Version)
	w.u8(uint8(q.Kind))
	w.u64(q.ClientID)
	w.u64(q.Nonce)
	n := w.count16(len(q.Constraints))
	for _, c := range q.Constraints[:n] {
		w.u8(uint8(c.Field))
		w.u64(c.Value)
		w.u64(c.Mask)
	}
	w.str(q.Param)
	w.u32(q.DeadlineMillis)
	return w.buf
}

// UnmarshalQueryRequest decodes a request payload.
func UnmarshalQueryRequest(data []byte) (*QueryRequest, error) {
	r := reader{buf: data}
	q := &QueryRequest{
		Version:  r.u8(),
		Kind:     QueryKind(r.u8()),
		ClientID: r.u64(),
		Nonce:    r.u64(),
	}
	n := int(r.u16())
	for i := 0; i < n && r.err == nil; i++ {
		q.Constraints = append(q.Constraints, FieldConstraint{
			Field: Field(r.u8()),
			Value: r.u64(),
			Mask:  r.u64(),
		})
	}
	q.Param = r.str()
	q.DeadlineMillis = r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if q.Version != CurrentVersion {
		return nil, errBadVersion
	}
	return q, nil
}

// ResponseStatus reports the outcome of a query.
type ResponseStatus uint8

// Response statuses.
const (
	StatusOK ResponseStatus = iota + 1
	StatusViolation
	StatusError
	StatusUnsupported
)

// String names the status.
func (s ResponseStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusViolation:
		return "violation"
	case StatusError:
		return "error"
	case StatusUnsupported:
		return "unsupported"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Endpoint describes one access point in a response (e.g. a reachable
// destination), together with whether it authenticated in-band.
type Endpoint struct {
	ClientID      uint64
	SwitchID      uint32
	Port          uint32
	Authenticated bool
	// Detail carries e.g. the geographic region of the endpoint.
	Detail string
}

// QueryResponse is the RVaaS → client response payload, injected as a
// Packet-Out. The paper notes the server "also forwards to the client the
// total number of authentication requests that were made, such that it can
// detect cases where some access points did not respond" — AuthRequested vs
// AuthReplied carries exactly that.
type QueryResponse struct {
	Version       uint8
	Kind          QueryKind
	Nonce         uint64
	Status        ResponseStatus
	Detail        string
	Endpoints     []Endpoint
	Regions       []string
	AuthRequested uint32
	AuthReplied   uint32
	// SnapshotID identifies the configuration snapshot the answer was
	// computed on; clients may compare across queries.
	SnapshotID uint64
	// Signature is the enclave's Ed25519 signature over SigningBytes().
	Signature []byte
	// Quote is the serialized attestation quote binding the signature key
	// to the RVaaS code measurement.
	Quote []byte
}

// Marshal encodes the response including signature and quote.
func (resp *QueryResponse) Marshal() []byte {
	w := writer{buf: resp.core()}
	w.bytesN(resp.Signature)
	w.bytesN(resp.Quote)
	return w.buf
}

// SigningBytes returns the canonical bytes covered by the signature
// (everything except the signature and quote).
func (resp *QueryResponse) SigningBytes() []byte {
	return resp.core()
}

func (resp *QueryResponse) core() []byte {
	var w writer
	w.u8(resp.Version)
	w.u8(uint8(resp.Kind))
	w.u64(resp.Nonce)
	w.u8(uint8(resp.Status))
	w.str(resp.Detail)
	ne := w.count16(len(resp.Endpoints))
	for _, e := range resp.Endpoints[:ne] {
		w.u64(e.ClientID)
		w.u32(e.SwitchID)
		w.u32(e.Port)
		if e.Authenticated {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.str(e.Detail)
	}
	ng := w.count16(len(resp.Regions))
	for _, g := range resp.Regions[:ng] {
		w.str(g)
	}
	w.u32(resp.AuthRequested)
	w.u32(resp.AuthReplied)
	w.u64(resp.SnapshotID)
	return w.buf
}

// UnmarshalQueryResponse decodes a response payload.
func UnmarshalQueryResponse(data []byte) (*QueryResponse, error) {
	r := reader{buf: data}
	resp := &QueryResponse{
		Version: r.u8(),
		Kind:    QueryKind(r.u8()),
		Nonce:   r.u64(),
		Status:  ResponseStatus(r.u8()),
		Detail:  r.str(),
	}
	n := int(r.u16())
	for i := 0; i < n && r.err == nil; i++ {
		e := Endpoint{
			ClientID: r.u64(),
			SwitchID: r.u32(),
			Port:     r.u32(),
		}
		e.Authenticated = r.u8() == 1
		e.Detail = r.str()
		resp.Endpoints = append(resp.Endpoints, e)
	}
	ng := int(r.u16())
	for i := 0; i < ng && r.err == nil; i++ {
		resp.Regions = append(resp.Regions, r.str())
	}
	resp.AuthRequested = r.u32()
	resp.AuthReplied = r.u32()
	resp.SnapshotID = r.u64()
	resp.Signature = r.bytesN()
	resp.Quote = r.bytesN()
	if r.err != nil {
		return nil, r.err
	}
	return resp, nil
}

// SubscribeOp selects a subscription operation.
type SubscribeOp uint8

// SubOpRemove is the one subscription operation a SubscribeRequest carries
// (OpUnsubscribe). The value is a wire byte: 1 (add) and 3 (query-verdict)
// are retired and stay reserved — registration travels as OpBatchSubscribe
// and verdicts are read with OpSessionResume.
const SubOpRemove SubscribeOp = 2

// SubscribeRequest is the client → RVaaS payload removing a standing
// invariant. Its codec predates batch registration and is kept byte for
// byte: the anchor and invariant fields still travel, zero in a removal.
type SubscribeRequest struct {
	Version  uint8
	Op       SubscribeOp
	ClientID uint64
	// Nonce correlates the ack with this request.
	Nonce uint64
	// SubID names the subscription to remove.
	SubID uint64
	// RefNonce names a subscription by its registration nonce (SubID 0): a
	// client whose registration reply was lost never learned the SubID, and
	// uses this to clean up the orphaned server-side subscription.
	RefNonce uint64
	// AnchorSwitch/AnchorPort and Kind/Constraints/Param are unused by a
	// removal; they keep the codec's layout.
	AnchorSwitch uint32
	AnchorPort   uint32
	Kind         QueryKind
	Constraints  []FieldConstraint
	Param        string
	// Signature is the client's Ed25519 signature over SigningBytes(),
	// verified against the key registered for ClientID. Unlike one-shot
	// queries (read-only), a removal mutates server state — a forged one
	// would silently disable a victim's standing monitoring, so it must be
	// authenticated.
	Signature []byte
}

// SigningBytes returns the canonical bytes covered by the signature
// (everything except the signature itself).
func (s *SubscribeRequest) SigningBytes() []byte { return s.core() }

func (s *SubscribeRequest) core() []byte {
	var w writer
	w.u8(s.Version)
	w.u8(uint8(s.Op))
	w.u64(s.ClientID)
	w.u64(s.Nonce)
	w.u64(s.SubID)
	w.u64(s.RefNonce)
	w.u32(s.AnchorSwitch)
	w.u32(s.AnchorPort)
	w.u8(uint8(s.Kind))
	n := w.count16(len(s.Constraints))
	for _, c := range s.Constraints[:n] {
		w.u8(uint8(c.Field))
		w.u64(c.Value)
		w.u64(c.Mask)
	}
	w.str(s.Param)
	return w.buf
}

// Marshal encodes the subscribe request including the signature.
func (s *SubscribeRequest) Marshal() []byte {
	w := writer{buf: s.core()}
	w.bytesN(s.Signature)
	return w.buf
}

// UnmarshalSubscribeRequest decodes a subscribe request payload.
func UnmarshalSubscribeRequest(data []byte) (*SubscribeRequest, error) {
	r := reader{buf: data}
	s := &SubscribeRequest{
		Version:      r.u8(),
		Op:           SubscribeOp(r.u8()),
		ClientID:     r.u64(),
		Nonce:        r.u64(),
		SubID:        r.u64(),
		RefNonce:     r.u64(),
		AnchorSwitch: r.u32(),
		AnchorPort:   r.u32(),
		Kind:         QueryKind(r.u8()),
	}
	n := int(r.u16())
	for i := 0; i < n && r.err == nil; i++ {
		s.Constraints = append(s.Constraints, FieldConstraint{
			Field: Field(r.u8()),
			Value: r.u64(),
			Mask:  r.u64(),
		})
	}
	s.Param = r.str()
	s.Signature = r.bytesN()
	if r.err != nil {
		return nil, r.err
	}
	if s.Version != CurrentVersion {
		return nil, errBadVersion
	}
	return s, nil
}

// NotifyEvent classifies a subscription notification.
type NotifyEvent uint8

// Notification events.
const (
	// NotifyAck acknowledges an unsubscribe operation.
	NotifyAck NotifyEvent = iota + 1
	// NotifyViolation reports a standing invariant transitioning OK →
	// violated.
	NotifyViolation
	// NotifyRecovery reports the violated → OK transition.
	NotifyRecovery
	// NotifyError rejects an unsubscribe operation.
	NotifyError
)

// String names the event.
func (e NotifyEvent) String() string {
	switch e {
	case NotifyAck:
		return "ack"
	case NotifyViolation:
		return "violation"
	case NotifyRecovery:
		return "recovery"
	case NotifyError:
		return "error"
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Notification is the RVaaS → client message about one standing invariant.
// On the wire (OpNotify) it is the signed ack of an unsubscribe op. Violation/recovery transitions travel as items of a
// signed NotifyBatch; the client agent hands each verified item to its
// subscriber in this shape (NotifyBatch.Notification), with Signature empty —
// the batch signature covered it. Either way a compromised provider cannot
// forge or suppress verdict transitions without detection.
type Notification struct {
	Version uint8
	Event   NotifyEvent
	Kind    QueryKind
	Status  ResponseStatus
	SubID   uint64
	// Nonce echoes the subscription nonce (ack routing at the client).
	Nonce uint64
	// Seq increments per subscription so clients can detect missed
	// notifications.
	Seq        uint64
	SnapshotID uint64
	Detail     string
	// Signature is the enclave's Ed25519 signature over SigningBytes().
	Signature []byte
	// Quote is the serialized attestation quote.
	Quote []byte
}

// SigningBytes returns the canonical bytes covered by the signature.
func (n *Notification) SigningBytes() []byte { return n.core() }

func (n *Notification) core() []byte {
	var w writer
	w.u8(n.Version)
	w.u8(uint8(n.Event))
	w.u8(uint8(n.Kind))
	w.u8(uint8(n.Status))
	w.u64(n.SubID)
	w.u64(n.Nonce)
	w.u64(n.Seq)
	w.u64(n.SnapshotID)
	w.str(n.Detail)
	return w.buf
}

// Marshal encodes the notification including signature and quote.
func (n *Notification) Marshal() []byte {
	w := writer{buf: n.core()}
	w.bytesN(n.Signature)
	w.bytesN(n.Quote)
	return w.buf
}

// UnmarshalNotification decodes a notification payload.
func UnmarshalNotification(data []byte) (*Notification, error) {
	r := reader{buf: data}
	n := &Notification{
		Version: r.u8(),
		Event:   NotifyEvent(r.u8()),
		Kind:    QueryKind(r.u8()),
		Status:  ResponseStatus(r.u8()),
		SubID:   r.u64(),
		Nonce:   r.u64(),
		Seq:     r.u64(),
	}
	n.SnapshotID = r.u64()
	n.Detail = r.str()
	n.Signature = r.bytesN()
	n.Quote = r.bytesN()
	if r.err != nil {
		return nil, r.err
	}
	return n, nil
}

// NotifyItem is one verdict transition inside a NotifyBatch: the fields of
// a Notification that differ per subscription.
type NotifyItem struct {
	Event  NotifyEvent
	Kind   QueryKind
	Status ResponseStatus
	SubID  uint64
	// Nonce echoes the subscription nonce, which routes a push that
	// overtakes the subscribe ack.
	Nonce uint64
	// Seq is the subscription's own sequence number: replay rejection and
	// gap detection stay per subscription, exactly as for a lone push.
	Seq    uint64
	Detail string
}

// NotifyBatch is the RVaaS → client push: every verdict transition one
// re-verification pass produced for one client session at one access point,
// in SubID order, under ONE enclave signature (a lone transition is a
// one-item batch). The pass evaluated one snapshot, so SnapshotID is stated
// once. The signature covers the item list as a whole: a receiver accepts
// all items or none.
type NotifyBatch struct {
	Version    uint8
	SnapshotID uint64
	Items      []NotifyItem
	// Signature is the enclave's Ed25519 signature over SigningBytes().
	Signature []byte
	// Quote is the serialized attestation quote.
	Quote []byte
}

// notifyBatchDomain opens the signed bytes of a NotifyBatch. No other
// server-signed body starts with it (they start with a version byte and a
// nonce or event), so a batch signature can never be presented as the
// signature of an ack, a reply or a response with the same leading fields —
// nor the reverse.
const notifyBatchDomain = "notify-batch.1"

// SigningBytes returns the canonical bytes covered by the signature: the
// domain tag followed by the body as marshaled.
func (b *NotifyBatch) SigningBytes() []byte {
	return b.appendCore([]byte(notifyBatchDomain))
}

func (b *NotifyBatch) appendCore(buf []byte) []byte {
	w := writer{buf: buf}
	w.u8(b.Version)
	w.u64(b.SnapshotID)
	w.u32(uint32(len(b.Items)))
	for _, it := range b.Items {
		w.u8(uint8(it.Event))
		w.u8(uint8(it.Kind))
		w.u8(uint8(it.Status))
		w.u64(it.SubID)
		w.u64(it.Nonce)
		w.u64(it.Seq)
		w.str(it.Detail)
	}
	return w.buf
}

// Marshal encodes the batch including signature and quote.
func (b *NotifyBatch) Marshal() []byte {
	w := writer{buf: b.appendCore(nil)}
	w.bytesN(b.Signature)
	w.bytesN(b.Quote)
	return w.buf
}

// UnmarshalNotifyBatch decodes a push batch.
func UnmarshalNotifyBatch(data []byte) (*NotifyBatch, error) {
	r := reader{buf: data}
	b := &NotifyBatch{Version: r.u8(), SnapshotID: r.u64()}
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		it := NotifyItem{
			Event:  NotifyEvent(r.u8()),
			Kind:   QueryKind(r.u8()),
			Status: ResponseStatus(r.u8()),
			SubID:  r.u64(),
			Nonce:  r.u64(),
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

// Notification returns item i in the shape subscribers receive: its own
// fields plus the batch's version, snapshot id and quote.
func (b *NotifyBatch) Notification(i int) *Notification {
	it := b.Items[i]
	return &Notification{
		Version:    b.Version,
		Event:      it.Event,
		Kind:       it.Kind,
		Status:     it.Status,
		SubID:      it.SubID,
		Nonce:      it.Nonce,
		Seq:        it.Seq,
		SnapshotID: b.SnapshotID,
		Detail:     it.Detail,
		Quote:      b.Quote,
	}
}

// AuthRequest is the payload RVaaS injects toward endpoints discovered by
// logical verification ("these packets trigger destination clients to
// respond to the querying clients, in an authenticated manner", §IV-A3).
type AuthRequest struct {
	QueryNonce uint64
	Challenge  uint64
	// ServerKey is the RVaaS public key fingerprint so agents can address
	// the reply.
	ServerKey []byte
}

// Marshal encodes the auth request.
func (a *AuthRequest) Marshal() []byte {
	var w writer
	w.u64(a.QueryNonce)
	w.u64(a.Challenge)
	w.bytesN(a.ServerKey)
	return w.buf
}

// UnmarshalAuthRequest decodes an auth request payload.
func UnmarshalAuthRequest(data []byte) (*AuthRequest, error) {
	r := reader{buf: data}
	a := &AuthRequest{
		QueryNonce: r.u64(),
		Challenge:  r.u64(),
		ServerKey:  r.bytesN(),
	}
	if r.err != nil {
		return nil, r.err
	}
	return a, nil
}

// AuthReply is the client agent's authenticated reply to a challenge.
type AuthReply struct {
	QueryNonce uint64
	Challenge  uint64
	ClientID   uint64
	// Signature is the agent's signature over the canonical reply bytes.
	Signature []byte
	// PubKey is the agent's public key (verified against RVaaS's client
	// registry).
	PubKey []byte
}

// SigningBytes returns the canonical bytes the agent signs.
func (a *AuthReply) SigningBytes() []byte {
	var w writer
	w.u64(a.QueryNonce)
	w.u64(a.Challenge)
	w.u64(a.ClientID)
	return w.buf
}

// Marshal encodes the auth reply.
func (a *AuthReply) Marshal() []byte {
	w := writer{buf: a.SigningBytes()}
	w.bytesN(a.Signature)
	w.bytesN(a.PubKey)
	return w.buf
}

// UnmarshalAuthReply decodes an auth reply payload.
func UnmarshalAuthReply(data []byte) (*AuthReply, error) {
	r := reader{buf: data}
	a := &AuthReply{
		QueryNonce: r.u64(),
		Challenge:  r.u64(),
		ClientID:   r.u64(),
	}
	a.Signature = r.bytesN()
	a.PubKey = r.bytesN()
	if r.err != nil {
		return nil, r.err
	}
	return a, nil
}

// ProbePayload is the body of an RVaaS topology probe frame (LLDP-like
// packets issued "through all internal ports", §IV-A1). The HMAC prevents a
// compromised controller from forging plausible probes.
type ProbePayload struct {
	ProbeID    uint64
	SrcSwitch  uint32
	SrcPort    uint32
	IssuedUnix int64
	MAC        []byte
}

// SigningBytes returns the canonical bytes covered by the MAC.
func (pp *ProbePayload) SigningBytes() []byte {
	var w writer
	w.u64(pp.ProbeID)
	w.u32(pp.SrcSwitch)
	w.u32(pp.SrcPort)
	w.u64(uint64(pp.IssuedUnix))
	return w.buf
}

// Marshal encodes the probe payload.
func (pp *ProbePayload) Marshal() []byte {
	w := writer{buf: pp.SigningBytes()}
	w.bytesN(pp.MAC)
	return w.buf
}

// UnmarshalProbePayload decodes a probe payload.
func UnmarshalProbePayload(data []byte) (*ProbePayload, error) {
	r := reader{buf: data}
	pp := &ProbePayload{
		ProbeID:   r.u64(),
		SrcSwitch: r.u32(),
		SrcPort:   r.u32(),
	}
	pp.IssuedUnix = int64(r.u64())
	pp.MAC = r.bytesN()
	if r.err != nil {
		return nil, r.err
	}
	return pp, nil
}

// Canonical RVaaS addressing constants shared by every frame builder.
const (
	// rvaasSrcMAC is the locally-administered source MAC of frames RVaaS
	// injects via Packet-Out.
	rvaasSrcMAC uint64 = 0x02005AA5_0001
	// broadcastMAC is used where client frames need no concrete
	// destination (the ingress switch intercepts on the magic port).
	broadcastMAC uint64 = 0xFFFFFFFFFFFF
)

// rvaasAnycastIP is the RVaaS anycast address (10.255.255.254).
var rvaasAnycastIP = IPv4(10, 255, 255, 254)

// rvaasUDP builds an Ethernet/IPv4/UDP frame with the model's fixed TTL.
func rvaasUDP(ethDst, ethSrc uint64, ipSrc, ipDst uint32, l4Src, l4Dst uint16, payload []byte) *Packet {
	return &Packet{
		EthDst:  ethDst,
		EthSrc:  ethSrc,
		EthType: EthTypeIPv4,
		IPSrc:   ipSrc,
		IPDst:   ipDst,
		IPProto: IPProtoUDP,
		TTL:     64,
		L4Src:   l4Src,
		L4Dst:   l4Dst,
		Payload: payload,
	}
}

// NewEnvelopePacket wraps an envelope for injection at the client's access
// point (client → RVaaS direction): it addresses the anycast IP from a
// pseudo-ephemeral source port to the magic destination port.
func NewEnvelopePacket(srcMAC uint64, srcIP uint32, env *Envelope) *Packet {
	return rvaasUDP(broadcastMAC, srcMAC, srcIP, rvaasAnycastIP,
		ephemeralPort(env.CorrelationID), PortRVaaSV2, env.Marshal())
}

// NewEnvelopeReplyPacket wraps an envelope for Packet-Out injection toward
// a client (RVaaS → client direction: replies, asynchronous pushes and auth
// challenges alike), inverting the addressing of NewEnvelopePacket.
func NewEnvelopeReplyPacket(dstMAC uint64, dstIP uint32, env *Envelope) *Packet {
	return rvaasUDP(dstMAC, rvaasSrcMAC, rvaasAnycastIP, dstIP,
		PortRVaaSV2, ephemeralPort(env.CorrelationID), env.Marshal())
}

// NewProbePacket wraps a probe payload in a probe EthType frame.
func NewProbePacket(pp *ProbePayload) *Packet {
	return &Packet{
		EthDst:  0x0180C200000E, // LLDP multicast
		EthSrc:  0x02005AA5_0002,
		EthType: EthTypeProbe,
		Payload: pp.Marshal(),
	}
}

// ephemeralPort derives a stable pseudo-ephemeral port from a nonce so the
// response can be routed back without per-flow state. The result avoids
// well-known ports and PortRVaaSV2 — a collision with the magic port would
// make a client frame classify as an RVaaS reply (and vice versa).
func ephemeralPort(nonce uint64) uint16 {
	p := uint16(nonce>>48) ^ uint16(nonce>>32) ^ uint16(nonce>>16) ^ uint16(nonce)
	if p < 1024 {
		p += 1024
	}
	if p == PortRVaaSV2 {
		p++
	}
	return p
}
