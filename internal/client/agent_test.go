package client

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/topology"
	"repro/internal/wire"
)

// fakeNIC records injected frames.
type fakeNIC struct {
	mu     sync.Mutex
	frames []*wire.Packet
	eps    []topology.Endpoint
}

func (f *fakeNIC) InjectFromHost(ep topology.Endpoint, pkt *wire.Packet) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.frames = append(f.frames, pkt)
	f.eps = append(f.eps, ep)
	return nil
}

func (f *fakeNIC) last() (*wire.Packet, topology.Endpoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.frames) == 0 {
		return nil, topology.Endpoint{}
	}
	return f.frames[len(f.frames)-1], f.eps[len(f.eps)-1]
}

func testAgent(t *testing.T) (*Agent, *fakeNIC, *enclave.Platform, *enclave.Enclave) {
	t.Helper()
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := platform.Launch([]byte("rvaas-controller-v1"))
	if err != nil {
		t.Fatal(err)
	}
	nic := &fakeNIC{}
	ap := topology.AccessPoint{
		Endpoint: topology.Endpoint{Switch: 1, Port: 3},
		ClientID: 7, HostMAC: 0xAA, HostIP: wire.IPv4(10, 0, 1, 1),
	}
	a, err := New(Config{
		ClientID: 7,
		Access:   ap,
		NIC:      nic,
		Trust: TrustAnchors{
			PlatformRoot: platform.RootKey(),
			Measurement:  enclave.MeasurementOf([]byte("rvaas-controller-v1")),
		},
		ResponseTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.PinServerKey(encl.PublicKey())
	return a, nic, platform, encl
}

// signedResponse builds a correctly signed+attested response for a nonce.
func signedResponse(encl *enclave.Enclave, nonce uint64) *wire.QueryResponse {
	resp := &wire.QueryResponse{
		Version: wire.CurrentVersion,
		Kind:    wire.QueryIsolation,
		Nonce:   nonce,
		Status:  wire.StatusOK,
	}
	resp.Signature = encl.Sign(resp.SigningBytes())
	resp.Quote = encl.KeyQuote().Marshal()
	return resp
}

func TestAgentAuthReplyPath(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	req := &wire.AuthRequest{QueryNonce: 99, Challenge: 1234, ServerKey: encl.PublicKey()}
	deliver(a.HandleFrame, wire.OpAuthChallenge, req.Challenge, req.Marshal())

	pkt, ep := nic.last()
	if pkt == nil {
		t.Fatal("no auth reply injected")
	}
	env := envelopeOf(pkt)
	if env == nil || env.Op != wire.OpAuthReply || env.SessionID != a.SessionID() {
		t.Fatalf("injected packet is not an auth reply envelope: %v", pkt)
	}
	if ep != (topology.Endpoint{Switch: 1, Port: 3}) {
		t.Errorf("reply injected at %v", ep)
	}
	rep, err := wire.UnmarshalAuthReply(env.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QueryNonce != 99 || rep.Challenge != 1234 || rep.ClientID != 7 {
		t.Errorf("reply fields: %+v", rep)
	}
	if !ed25519.Verify(a.PublicKey(), rep.SigningBytes(), rep.Signature) {
		t.Error("reply signature invalid")
	}
	if a.AuthRequestsSeen() != 1 {
		t.Errorf("auth seen = %d", a.AuthRequestsSeen())
	}
}

func TestAgentHandlerForSecondaryAP(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	secondary := topology.AccessPoint{
		Endpoint: topology.Endpoint{Switch: 5, Port: 2},
		ClientID: 7, HostMAC: 0xBB, HostIP: wire.IPv4(10, 0, 5, 1),
	}
	h := a.HandlerFor(secondary)
	req := &wire.AuthRequest{QueryNonce: 1, Challenge: 2, ServerKey: encl.PublicKey()}
	deliver(h, wire.OpAuthChallenge, req.Challenge, req.Marshal())
	pkt, ep := nic.last()
	if pkt == nil || ep != secondary.Endpoint {
		t.Fatalf("secondary reply at %v", ep)
	}
	if pkt.IPSrc != secondary.HostIP || pkt.EthSrc != secondary.HostMAC {
		t.Errorf("secondary addressing wrong: %v", pkt)
	}
}

func TestAgentQueryTimeout(t *testing.T) {
	a, _, _, _ := testAgent(t)
	_, err := a.Query(wire.QueryIsolation, nil, "")
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

// The fake server: deliver feeds one RVaaS → client envelope into a receive
// path as if it arrived from the fabric; envelopeOf decodes a client →
// RVaaS frame the agent injected (nil for anything else).
func deliver(recv func(*wire.Packet), op wire.Op, corr uint64, body []byte) {
	recv(wire.NewEnvelopeReplyPacket(0xAA, wire.IPv4(10, 0, 1, 1), &wire.Envelope{
		Version: wire.EnvelopeVersion, Op: op, CorrelationID: corr, Body: body,
	}))
}

func envelopeOf(pkt *wire.Packet) *wire.Envelope {
	if !pkt.IsRVaaSV2() {
		return nil
	}
	env, err := wire.UnmarshalEnvelope(pkt.Payload)
	if err != nil {
		return nil
	}
	return env
}

func deliverResponse(a *Agent, resp *wire.QueryResponse) {
	deliver(a.HandleFrame, wire.OpQueryResponse, resp.Nonce, resp.Marshal())
}

// deliverNotification delivers a signed Notification as an OpNotify
// envelope (on the wire: the ack of an unsubscribe op).
func deliverNotification(a *Agent, n *wire.Notification) {
	deliver(a.HandleFrame, wire.OpNotify, n.Nonce, n.Marshal())
}

// pushItem is one verdict transition as the server batches it.
func pushItem(event wire.NotifyEvent, subID, nonce, seq uint64) wire.NotifyItem {
	it := wire.NotifyItem{
		Event: event, Kind: wire.QueryReachableDestinations, Status: wire.StatusViolation,
		SubID: subID, Nonce: nonce, Seq: seq, Detail: "test transition",
	}
	if event == wire.NotifyRecovery {
		it.Status = wire.StatusOK
	}
	return it
}

// signedBatch is the push of one server pass: the items under one enclave
// signature, with the key quote.
func signedBatch(encl *enclave.Enclave, items ...wire.NotifyItem) *wire.NotifyBatch {
	b := &wire.NotifyBatch{Version: wire.CurrentVersion, SnapshotID: 9, Items: items}
	b.Signature = encl.Sign(b.SigningBytes())
	b.Quote = encl.KeyQuote().Marshal()
	return b
}

// batchFrames frames a batch the way the controller's flush does: one
// envelope when it fits the frame budget, an OpChunk chain otherwise.
func batchFrames(t *testing.T, b *wire.NotifyBatch) []*wire.Packet {
	t.Helper()
	frames, err := wire.ChunkEnvelope(&wire.Envelope{
		Version: wire.EnvelopeVersion, Op: wire.OpNotifyBatch,
		CorrelationID: binary.BigEndian.Uint64(b.Signature), Body: b.Marshal(),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*wire.Packet, len(frames))
	for i, fr := range frames {
		pkts[i] = wire.NewEnvelopeReplyPacket(0xAA, wire.IPv4(10, 0, 1, 1), fr)
	}
	return pkts
}

// deliverPush signs the items as one batch and delivers it unchunked.
func deliverPush(a *Agent, encl *enclave.Enclave, items ...wire.NotifyItem) {
	b := signedBatch(encl, items...)
	deliver(a.HandleFrame, wire.OpNotifyBatch, binary.BigEndian.Uint64(b.Signature), b.Marshal())
}

// sniffEnvelope polls the NIC for the next injected envelope of the given
// op whose correlation id is not in seen, returning it.
func sniffEnvelope(t *testing.T, nic *fakeNIC, op wire.Op, seen map[uint64]bool) *wire.Envelope {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		nic.mu.Lock()
		frames := append([]*wire.Packet(nil), nic.frames...)
		nic.mu.Unlock()
		for _, pkt := range frames {
			if env := envelopeOf(pkt); env != nil && env.Op == op && !seen[env.CorrelationID] {
				seen[env.CorrelationID] = true
				return env
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no %v envelope injected", op)
	return nil
}

// queryAsync starts a query and returns channels with its outcome, plus the
// nonce the agent used (sniffed from the injected packet).
func queryAsync(t *testing.T, a *Agent, nic *fakeNIC) (chan *wire.QueryResponse, chan error, uint64) {
	t.Helper()
	respCh := make(chan *wire.QueryResponse, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := a.Query(wire.QueryIsolation, nil, "")
		respCh <- resp
		errCh <- err
	}()
	q, err := wire.UnmarshalQueryRequest(sniffEnvelope(t, nic, wire.OpQuery, map[uint64]bool{}).Body)
	if err != nil {
		t.Fatal(err)
	}
	return respCh, errCh, q.Nonce
}

func TestAgentQueryVerifiesGoodResponse(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	respCh, errCh, nonce := queryAsync(t, a, nic)
	deliverResponse(a, signedResponse(encl, nonce))
	resp := <-respCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if resp.Nonce != nonce {
		t.Errorf("nonce mismatch")
	}
}

func TestAgentRejectsForgedSignature(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	respCh, errCh, nonce := queryAsync(t, a, nic)
	resp := signedResponse(encl, nonce)
	resp.Status = wire.StatusViolation // tamper after signing
	deliverResponse(a, resp)
	<-respCh
	if err := <-errCh; !errors.Is(err, ErrBadSignature) {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
}

func TestAgentRejectsWrongEnclave(t *testing.T) {
	a, nic, platform, _ := testAgent(t)
	// An enclave running DIFFERENT code on the same platform signs the
	// response; measurement check must fail even though the platform quote
	// verifies.
	evil, err := platform.Launch([]byte("evil-controller"))
	if err != nil {
		t.Fatal(err)
	}
	a.PinServerKey(evil.PublicKey())
	respCh, errCh, nonce := queryAsync(t, a, nic)
	resp := &wire.QueryResponse{Version: 1, Kind: wire.QueryIsolation, Nonce: nonce, Status: wire.StatusOK}
	resp.Signature = evil.Sign(resp.SigningBytes())
	resp.Quote = evil.KeyQuote().Marshal()
	deliverResponse(a, resp)
	<-respCh
	if err := <-errCh; !errors.Is(err, ErrBadAttestation) {
		t.Errorf("err = %v, want ErrBadAttestation", err)
	}
}

func TestAgentRejectsGarbageQuote(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	respCh, errCh, nonce := queryAsync(t, a, nic)
	resp := signedResponse(encl, nonce)
	resp.Quote = []byte{1, 2, 3}
	deliverResponse(a, resp)
	<-respCh
	if err := <-errCh; !errors.Is(err, ErrBadAttestation) {
		t.Errorf("err = %v, want ErrBadAttestation", err)
	}
}

func TestAgentIgnoresUnknownNonce(t *testing.T) {
	a, _, _, encl := testAgent(t)
	// No outstanding query; must not panic or deadlock.
	deliverResponse(a, signedResponse(encl, 424242))
}

func TestAgentCloseFailsOutstanding(t *testing.T) {
	a, nic, _, _ := testAgent(t)
	respCh, errCh, _ := queryAsync(t, a, nic)
	a.Close()
	<-respCh
	if err := <-errCh; !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	// Query after close fails immediately.
	if _, err := a.Query(wire.QueryIsolation, nil, ""); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close query: %v", err)
	}
}

func TestAgentNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("config without NIC accepted")
	}
}

func TestAgentNoPinnedKey(t *testing.T) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := platform.Launch([]byte("rvaas-controller-v1"))
	if err != nil {
		t.Fatal(err)
	}
	nic := &fakeNIC{}
	a, err := New(Config{ClientID: 1, NIC: nic, Trust: TrustAnchors{
		PlatformRoot: platform.RootKey(),
		Measurement:  enclave.MeasurementOf([]byte("rvaas-controller-v1")),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// No PinServerKey: verification must fail closed.
	err = a.VerifyResponse(signedResponse(encl, 1))
	if !errors.Is(err, ErrBadAttestation) {
		t.Errorf("err = %v, want ErrBadAttestation", err)
	}
}

func TestRandomNonceUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		n, err := randomNonce()
		if err != nil {
			t.Fatal(err)
		}
		if seen[n] {
			t.Fatal("nonce collision")
		}
		seen[n] = true
	}
	// Sanity: crypto/rand reachable.
	var b [1]byte
	if _, err := rand.Read(b[:]); err != nil {
		t.Fatal(err)
	}
}

// ------------------------------------------------------------- gaps -----

// signedNotification builds a correctly signed+attested single notification
// (on the wire: the ack of a subscription op).
func signedNotification(encl *enclave.Enclave, event wire.NotifyEvent, subID, nonce, seq uint64) *wire.Notification {
	n := &wire.Notification{
		Version: wire.CurrentVersion,
		Event:   event,
		Kind:    wire.QueryReachableDestinations,
		Status:  wire.StatusViolation,
		SubID:   subID,
		Nonce:   nonce,
		Seq:     seq,
		Detail:  "test transition",
	}
	if event == wire.NotifyRecovery || event == wire.NotifyAck {
		n.Status = wire.StatusOK
	}
	n.Signature = encl.Sign(n.SigningBytes())
	n.Quote = encl.KeyQuote().Marshal()
	return n
}

// sniffRegister returns the next injected registration (OpBatchSubscribe)
// whose nonce is not in seen, with the routing nonce of its first item —
// the nonce a single Subscribe's pushes carry.
func sniffRegister(t *testing.T, nic *fakeNIC, seen map[uint64]bool) (*wire.BatchSubscribeRequest, uint64) {
	t.Helper()
	req, err := wire.UnmarshalBatchSubscribeRequest(sniffEnvelope(t, nic, wire.OpBatchSubscribe, seen).Body)
	if err != nil {
		t.Fatal(err)
	}
	return req, wire.BatchItemNonce(req.Nonce, 0)
}

// signedBatchReply is the server's signed reply to the registration with
// the given nonce.
func signedBatchReply(encl *enclave.Enclave, nonce uint64, items ...wire.BatchReplyItem) *wire.BatchReply {
	reply := &wire.BatchReply{Version: wire.CurrentVersion, Nonce: nonce, Status: wire.StatusOK, Items: items}
	reply.Signature = encl.Sign(reply.SigningBytes())
	reply.Quote = encl.KeyQuote().Marshal()
	return reply
}

// answerRegister signs and delivers the server's reply to a registration,
// returning it.
func answerRegister(a *Agent, encl *enclave.Enclave, req *wire.BatchSubscribeRequest, items ...wire.BatchReplyItem) *wire.BatchReply {
	reply := signedBatchReply(encl, req.Nonce, items...)
	deliver(a.HandleFrame, wire.OpBatchReply, reply.Nonce, reply.Marshal())
	return reply
}

// subscribeAsync starts a Subscribe and returns channels with its outcome.
func subscribeAsync(a *Agent) (chan *Subscription, chan error) {
	subCh := make(chan *Subscription, 1)
	errCh := make(chan error, 1)
	go func() {
		sub, err := a.Subscribe(wire.QueryReachableDestinations, nil, "")
		subCh <- sub
		errCh <- err
	}()
	return subCh, errCh
}

// okItem is the reply item of a registration with an OK verdict.
func okItem(subID uint64) wire.BatchReplyItem {
	return wire.BatchReplyItem{SubID: subID, Status: wire.StatusOK}
}

// sniffUnsubscribe returns the next injected removal whose nonce is not in
// seen.
func sniffUnsubscribe(t *testing.T, nic *fakeNIC, seen map[uint64]bool) *wire.SubscribeRequest {
	t.Helper()
	sr, err := wire.UnmarshalSubscribeRequest(sniffEnvelope(t, nic, wire.OpUnsubscribe, seen).Body)
	if err != nil || sr.Op != wire.SubOpRemove {
		t.Fatalf("unsubscribe envelope carries %+v (%v)", sr, err)
	}
	return sr
}

// answerResume waits for the agent's next session resume and answers it
// with the given per-subscription verdicts under the enclave's signature.
func answerResume(t *testing.T, a *Agent, nic *fakeNIC, encl *enclave.Enclave, seen map[uint64]bool, entries ...wire.ResumeVerdict) *wire.SessionResumeRequest {
	t.Helper()
	req := sniffResume(t, nic, seen)
	reply := signedResumeReply(encl, req, entries...)
	deliver(a.HandleFrame, wire.OpSessionResumeReply, reply.Nonce, reply.Marshal())
	return req
}

// sniffResume returns the next injected session resume whose nonce is not
// in seen.
func sniffResume(t *testing.T, nic *fakeNIC, seen map[uint64]bool) *wire.SessionResumeRequest {
	t.Helper()
	req, err := wire.UnmarshalSessionResumeRequest(sniffEnvelope(t, nic, wire.OpSessionResume, seen).Body)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// signedResumeReply is the server's signed reply to a session resume.
func signedResumeReply(encl *enclave.Enclave, req *wire.SessionResumeRequest, entries ...wire.ResumeVerdict) *wire.SessionResumeReply {
	reply := &wire.SessionResumeReply{
		Version: wire.CurrentVersion, Nonce: req.Nonce, SessionID: req.SessionID,
		Status: wire.StatusOK, Entries: entries,
	}
	reply.Signature = encl.Sign(reply.SigningBytes())
	reply.Quote = encl.KeyQuote().Marshal()
	return reply
}

// TestAgentSeqGapTriggersResubscribe drives the client-side delivery-hole
// recovery: a skipped Notification.Seq (a push lost in the fire-and-forget
// Packet-Out path) must surface a GapEvent and transparently re-register
// the invariant, resynchronizing on the new ack's verdict.
func TestAgentSeqGapTriggersResubscribe(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	seen := map[uint64]bool{}

	subCh := make(chan *Subscription, 1)
	errCh := make(chan error, 1)
	go func() {
		sub, err := a.Subscribe(wire.QueryReachableDestinations, nil, "")
		subCh <- sub
		errCh <- err
	}()
	add, addNonce := sniffRegister(t, nic, seen)
	answerRegister(a, encl, add, okItem(41))
	sub := <-subCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if sub.ID != 41 {
		t.Fatalf("sub id = %d", sub.ID)
	}

	// Seq 1 delivered normally.
	deliverPush(a, encl, pushItem(wire.NotifyViolation, 41, addNonce, 1))
	if n := <-sub.C; n.Seq != 1 {
		t.Fatalf("first notification seq = %d", n.Seq)
	}

	// Seq 3 skips 2: the newer event must still be delivered, and the agent
	// must start gap recovery.
	deliverPush(a, encl, pushItem(wire.NotifyRecovery, 41, addNonce, 3))
	if n := <-sub.C; n.Seq != 3 {
		t.Fatalf("post-gap notification seq = %d", n.Seq)
	}
	if a.GapsDetected() != 1 {
		t.Fatalf("gaps detected = %d", a.GapsDetected())
	}

	// The recovery re-subscribe goes out; ack it with a fresh id.
	readd, readdNonce := sniffRegister(t, nic, seen)
	if len(readd.Items) != 1 || readd.Items[0].Kind != wire.QueryReachableDestinations {
		t.Fatalf("re-subscribe items = %+v", readd.Items)
	}
	answerRegister(a, encl, readd, okItem(42))

	var ev GapEvent
	select {
	case ev = <-a.Gaps():
	case <-time.After(2 * time.Second):
		t.Fatal("no gap event surfaced")
	}
	if ev.SubID != 41 || ev.NewSubID != 42 || ev.MissedFrom != 2 || ev.MissedTo != 2 || ev.Err != nil {
		t.Fatalf("gap event = %+v", ev)
	}

	// The superseded server-side subscription is retired.
	rm := sniffUnsubscribe(t, nic, seen)
	if rm.SubID != 41 {
		t.Fatalf("remove targets sub %d, want 41", rm.SubID)
	}

	// The rebound subscription keeps flowing on the same channel with the
	// replacement's fresh sequence numbering.
	deliverPush(a, encl, pushItem(wire.NotifyViolation, 42, readdNonce, 1))
	select {
	case n := <-sub.C:
		if n.SubID != 42 || n.Seq != 1 {
			t.Fatalf("post-recovery notification = %+v", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no notification after recovery")
	}
}

// TestAgentLocalOverflowTriggersRecovery: a full local channel loses a
// verified event, which must trigger the same re-subscribe recovery as an
// in-network loss.
func TestAgentLocalOverflowTriggersRecovery(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	seen := map[uint64]bool{}
	subCh := make(chan *Subscription, 1)
	go func() {
		sub, _ := a.Subscribe(wire.QueryReachableDestinations, nil, "")
		subCh <- sub
	}()
	add, addNonce := sniffRegister(t, nic, seen)
	answerRegister(a, encl, add, okItem(77))
	sub := <-subCh
	if sub == nil {
		t.Fatal("subscribe failed")
	}

	// Fill the channel (capacity 32) without draining, then overflow it.
	for seq := uint64(1); seq <= 33; seq++ {
		ev := wire.NotifyViolation
		if seq%2 == 0 {
			ev = wire.NotifyRecovery
		}
		deliverPush(a, encl, pushItem(ev, 77, addNonce, seq))
	}
	if a.NotificationsDropped() == 0 {
		t.Fatal("overflow not recorded")
	}
	if a.GapsDetected() != 1 {
		t.Fatalf("gaps detected = %d, want 1 (single in-flight recovery)", a.GapsDetected())
	}
	// Recovery proceeds exactly as for an in-network loss.
	readd, _ := sniffRegister(t, nic, seen)
	answerRegister(a, encl, readd, okItem(78))
	select {
	case ev := <-a.Gaps():
		if ev.SubID != 77 || ev.NewSubID != 78 || ev.Err != nil {
			t.Fatalf("gap event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no gap event surfaced")
	}
}

// TestAgentRecoveryRacingPush: a push for the REPLACEMENT subscription
// arriving before its ack is processed restarts numbering at 1; it must be
// delivered via the pending stream, not dropped as a replay against the
// superseded stream's high sequence.
func TestAgentRecoveryRacingPush(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	seen := map[uint64]bool{}
	subCh := make(chan *Subscription, 1)
	go func() {
		sub, _ := a.Subscribe(wire.QueryReachableDestinations, nil, "")
		subCh <- sub
	}()
	add, addNonce := sniffRegister(t, nic, seen)
	answerRegister(a, encl, add, okItem(50))
	sub := <-subCh
	if sub == nil {
		t.Fatal("subscribe failed")
	}

	// Drive the old stream high, then force a gap.
	for _, seq := range []uint64{1, 2, 3} {
		ev := wire.NotifyViolation
		if seq%2 == 0 {
			ev = wire.NotifyRecovery
		}
		deliverPush(a, encl, pushItem(ev, 50, addNonce, seq))
		<-sub.C
	}
	deliverPush(a, encl, pushItem(wire.NotifyViolation, 50, addNonce, 5)) // skips 4
	<-sub.C

	readd, readdNonce := sniffRegister(t, nic, seen)
	// The replacement's first push (Seq=1) races ahead of its ack: with
	// lastSeq=5 on the superseded stream, it must still be delivered.
	deliverPush(a, encl, pushItem(wire.NotifyRecovery, 51, readdNonce, 1))
	select {
	case n := <-sub.C:
		if n.SubID != 51 || n.Seq != 1 {
			t.Fatalf("racing replacement push = %+v", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("replacement push dropped as a replay of the old stream")
	}
	// Now the ack lands; the rebased stream continues from the delivered
	// push, so Seq=2 flows and Seq=1 is a replay.
	answerRegister(a, encl, readd, okItem(51))
	select {
	case ev := <-a.Gaps():
		if ev.NewSubID != 51 || ev.Err != nil {
			t.Fatalf("gap event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no gap event")
	}
	drops := a.NotificationsDropped()
	deliverPush(a, encl, pushItem(wire.NotifyRecovery, 51, readdNonce, 1)) // replay
	if a.NotificationsDropped() != drops+1 {
		t.Error("replayed replacement push not dropped after rebase")
	}
	deliverPush(a, encl, pushItem(wire.NotifyViolation, 51, readdNonce, 2))
	select {
	case n := <-sub.C:
		if n.Seq != 2 {
			t.Fatalf("post-rebase push = %+v", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("post-rebase push not delivered")
	}
}

// TestAgentGapResyncsViaSessionResume: a detected loss is healed by the
// lightweight path — an OpSessionResume whose signed reply carries the
// current verdict and sequence number. The subscription is NOT re-
// registered, the gap event reports the same id, the sequence baseline is
// rebased on the reply (in-flight stale pushes drop as replays), and newer
// pushes keep flowing on the original stream.
func TestAgentGapResyncsViaSessionResume(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	seen := map[uint64]bool{}
	subCh := make(chan *Subscription, 1)
	go func() {
		sub, _ := a.Subscribe(wire.QueryReachableDestinations, nil, "")
		subCh <- sub
	}()
	add, addNonce := sniffRegister(t, nic, seen)
	answerRegister(a, encl, add, okItem(61))
	sub := <-subCh
	if sub == nil {
		t.Fatal("subscribe failed")
	}

	// Seq 3 skips 1..2: recovery starts with a session resume.
	deliverPush(a, encl, pushItem(wire.NotifyViolation, 61, addNonce, 3))
	if n := <-sub.C; n.Seq != 3 {
		t.Fatalf("post-gap notification seq = %d", n.Seq)
	}
	// The server's current verdict covers everything up to Seq 4 (a push
	// for 4 is still in flight and must later be dropped as superseded).
	req := answerResume(t, a, nic, encl, seen, wire.ResumeVerdict{
		SubID: 61, Kind: wire.QueryReachableDestinations, Status: wire.StatusViolation, Seq: 4, Detail: "current",
	})
	if req.SessionID != a.SessionID() || len(req.Entries) != 1 || req.Entries[0] != (wire.ResumeEntry{SubID: 61, LastSeq: 3}) {
		t.Fatalf("resume request = %+v, want sub 61 at seq 3", req)
	}
	if !ed25519.Verify(a.PublicKey(), wire.SessionSigningBytes(req.SigningBytes(), a.SessionID()), req.Signature) {
		t.Error("resume not signed by the client key under its session")
	}

	var ev GapEvent
	select {
	case ev = <-a.Gaps():
	case <-time.After(2 * time.Second):
		t.Fatal("no gap event surfaced")
	}
	if ev.SubID != 61 || ev.NewSubID != 61 || ev.Err != nil || ev.Status != wire.StatusViolation {
		t.Fatalf("gap event = %+v, want in-place resync of sub 61", ev)
	}
	if ev.MissedFrom != 1 || ev.MissedTo != 2 {
		t.Fatalf("missed range = [%d,%d], want [1,2]", ev.MissedFrom, ev.MissedTo)
	}

	// No re-subscribe went out: every subscribe on the wire is accounted for.
	nic.mu.Lock()
	for _, pkt := range nic.frames {
		if env := envelopeOf(pkt); env != nil && env.Op == wire.OpBatchSubscribe && !seen[env.CorrelationID] {
			nic.mu.Unlock()
			t.Fatalf("session-resume resync still re-subscribed (nonce %#x)", env.CorrelationID)
		}
	}
	nic.mu.Unlock()

	// The superseded in-flight push (Seq 4 <= rebased baseline) drops as a
	// replay; the next transition (Seq 5) flows normally.
	drops := a.NotificationsDropped()
	deliverPush(a, encl, pushItem(wire.NotifyRecovery, 61, addNonce, 4))
	if a.NotificationsDropped() != drops+1 {
		t.Error("superseded push not dropped after seq rebase")
	}
	deliverPush(a, encl, pushItem(wire.NotifyViolation, 61, addNonce, 5))
	select {
	case n := <-sub.C:
		if n.Seq != 5 {
			t.Fatalf("post-resync push = %+v", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("post-resync push not delivered")
	}
	if a.GapsDetected() != 1 {
		t.Fatalf("gaps detected = %d, want 1", a.GapsDetected())
	}
}

// TestAgentRefusedResumeFallsBack: when the server no longer knows the
// subscription (StatusError on its resume entry — e.g. a controller restart
// dropped the in-memory engine), recovery falls through to the full
// re-subscribe path at once and retires the stale server-side id.
func TestAgentRefusedResumeFallsBack(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	seen := map[uint64]bool{}
	subCh := make(chan *Subscription, 1)
	go func() {
		sub, _ := a.Subscribe(wire.QueryReachableDestinations, nil, "")
		subCh <- sub
	}()
	add, addNonce := sniffRegister(t, nic, seen)
	answerRegister(a, encl, add, okItem(71))
	sub := <-subCh
	if sub == nil {
		t.Fatal("subscribe failed")
	}

	deliverPush(a, encl, pushItem(wire.NotifyViolation, 71, addNonce, 2)) // skips 1
	<-sub.C
	answerResume(t, a, nic, encl, seen, wire.ResumeVerdict{SubID: 71, Status: wire.StatusError, Detail: "unknown subscription"})

	// Fallback: full re-subscribe, rebind to the replacement id.
	readd, _ := sniffRegister(t, nic, seen)
	answerRegister(a, encl, readd, okItem(72))
	select {
	case ev := <-a.Gaps():
		if ev.SubID != 71 || ev.NewSubID != 72 || ev.Err != nil {
			t.Fatalf("gap event = %+v, want re-subscribe fallback", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no gap event surfaced")
	}
	if rm := sniffUnsubscribe(t, nic, seen); rm.SubID != 71 {
		t.Fatalf("remove targets sub %d, want the stale 71", rm.SubID)
	}
	if a.SessionResumesSent() != 1 {
		t.Fatalf("resumes sent = %d, want 1 (a refusal must not be retried)", a.SessionResumesSent())
	}
}

// TestAgentInitiallyViolatedNoSpuriousGap: an invariant violated at
// registration consumes Seq=1 server-side with no push existing for it
// (the ack carries the verdict and its seq); the first real push arrives
// with Seq=2 and must NOT be misread as a loss.
func TestAgentInitiallyViolatedNoSpuriousGap(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	seen := map[uint64]bool{}
	subCh := make(chan *Subscription, 1)
	go func() {
		sub, _ := a.Subscribe(wire.QueryIsolation, nil, "")
		subCh <- sub
	}()
	add, addNonce := sniffRegister(t, nic, seen)
	// Seq 1 already consumed.
	answerRegister(a, encl, add, wire.BatchReplyItem{SubID: 60, Status: wire.StatusViolation, Seq: 1})
	sub := <-subCh
	if sub == nil {
		t.Fatal("subscribe failed")
	}
	if sub.InitialStatus != wire.StatusViolation {
		t.Fatalf("initial status = %v", sub.InitialStatus)
	}

	deliverPush(a, encl, pushItem(wire.NotifyRecovery, 60, addNonce, 2))
	select {
	case n := <-sub.C:
		if n.Seq != 2 {
			t.Fatalf("first push = %+v", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("first push not delivered")
	}
	if a.GapsDetected() != 0 {
		t.Fatalf("spurious gap on initially-violated subscription: %d", a.GapsDetected())
	}
}

// ------------------------------------------------------ binding -----

// TestReplayedBatchReplyNotBound: an envelope's correlation id is outside
// every signature, so a provider can deliver a genuine registration reply
// it captured under a later registration's id. The replay binds nothing and
// costs no signature check; the later Subscribe takes the reply that
// carries its own signed nonce.
func TestReplayedBatchReplyNotBound(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	seen := map[uint64]bool{}
	subCh, errCh := subscribeAsync(a)
	first, _ := sniffRegister(t, nic, seen)
	captured := answerRegister(a, encl, first, okItem(5))
	if sub, err := <-subCh, <-errCh; err != nil || sub.ID != 5 {
		t.Fatalf("registration 1 = (%v, %v)", sub, err)
	}

	subCh, errCh = subscribeAsync(a)
	second, _ := sniffRegister(t, nic, seen)
	sigs := a.SignatureVerifications()
	deliver(a.HandleFrame, wire.OpBatchReply, second.Nonce, captured.Marshal())
	answerRegister(a, encl, second, wire.BatchReplyItem{SubID: 6, Status: wire.StatusViolation, Detail: "current"})
	sub, err := <-subCh, <-errCh
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != 6 || sub.InitialStatus != wire.StatusViolation {
		t.Fatalf("registration 2 bound to sub %d (%v), want the genuine reply's sub 6", sub.ID, sub.InitialStatus)
	}
	if got := a.SignatureVerifications() - sigs; got != 1 {
		t.Fatalf("registration 2 cost %d signature verifications, want 1 (the replay none)", got)
	}
}

// TestReplayedResumeReplyNotAccepted: the same replay against a session
// resume. A captured "old green" resume reply delivered under the id of the
// resume that gap recovery sends is not accepted, so the recovery reports
// the verdict of the genuine reply that follows, not the replayed one.
func TestReplayedResumeReplyNotAccepted(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	seen := map[uint64]bool{}
	sub, addNonce := subscribed(t, a, nic, encl, 61)

	errCh := make(chan error, 1)
	go func() {
		_, err := a.ResumeSession()
		errCh <- err
	}()
	captured := signedResumeReply(encl, sniffResume(t, nic, seen), wire.ResumeVerdict{
		SubID: 61, Kind: wire.QueryReachableDestinations, Status: wire.StatusOK, Seq: 1, Detail: "old green",
	})
	deliver(a.HandleFrame, wire.OpSessionResumeReply, captured.Nonce, captured.Marshal())
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// Seq 3 skips 2: recovery resumes the session, and the provider answers
	// with the captured reply before the genuine one.
	deliverPush(a, encl, pushItem(wire.NotifyViolation, 61, addNonce, 3))
	if n := <-sub.C; n.Seq != 3 {
		t.Fatalf("post-gap notification seq = %d", n.Seq)
	}
	req := sniffResume(t, nic, seen)
	deliver(a.HandleFrame, wire.OpSessionResumeReply, req.Nonce, captured.Marshal())
	genuine := signedResumeReply(encl, req, wire.ResumeVerdict{
		SubID: 61, Kind: wire.QueryReachableDestinations, Status: wire.StatusViolation, Seq: 4, Detail: "current",
	})
	deliver(a.HandleFrame, wire.OpSessionResumeReply, genuine.Nonce, genuine.Marshal())
	select {
	case ev := <-a.Gaps():
		if ev.NewSubID != 61 || ev.Err != nil || ev.Status != wire.StatusViolation || ev.Detail != "current" {
			t.Fatalf("gap event = %+v, want the genuine resume's violation", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no gap event surfaced")
	}
}

// TestForgedBatchReplyAbandons: a reply under the registration's nonce that
// fails its signature check fails Subscribe, and, since no verified reply
// says what the server did, every item is retired by its registration
// nonce, exactly as after a timeout.
func TestForgedBatchReplyAbandons(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	seen := map[uint64]bool{}
	subCh, errCh := subscribeAsync(a)
	req, itemNonce := sniffRegister(t, nic, seen)
	forged := signedBatchReply(encl, req.Nonce, okItem(5))
	forged.Items[0].Status = wire.StatusViolation // tamper after signing
	deliver(a.HandleFrame, wire.OpBatchReply, req.Nonce, forged.Marshal())
	if sub, err := <-subCh, <-errCh; sub != nil || !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Subscribe = (%v, %v), want ErrBadSignature", sub, err)
	}
	if rm := sniffUnsubscribe(t, nic, seen); rm.SubID != 0 || rm.RefNonce != itemNonce {
		t.Fatalf("cleanup = %+v, want a remove by registration nonce %#x", rm, itemNonce)
	}
	if n := a.NonceRoutes(); n != 0 {
		t.Fatalf("forged reply left %d nonce route(s)", n)
	}
}
