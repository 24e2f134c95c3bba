// Package client implements the user-side agent of RVaaS: it issues
// magic-header envelope frames, answers authentication challenges ("clients run
// a software which responds to our authentication requests, in user space",
// paper §IV-A3), and verifies that responses really come from an attested
// RVaaS enclave.
package client

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/enclave"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Agent errors.
var (
	ErrTimeout        = errors.New("client: response timeout")
	ErrBadSignature   = errors.New("client: response signature invalid")
	ErrBadAttestation = errors.New("client: attestation failed")
	ErrClosed         = errors.New("client: agent closed")
)

// gapRecoveryPolicy paces the lightweight gap-recovery tier (session
// resume) before recovery escalates to a re-subscribe: two retries, so a
// transiently lossy channel gets three chances to heal in place.
var gapRecoveryPolicy = backoff.Policy{
	Initial:     50 * time.Millisecond,
	Max:         500 * time.Millisecond,
	MaxAttempts: 2,
}

// NIC abstracts the agent's attachment to the network: frame injection at
// its access point. The fabric satisfies this.
type NIC interface {
	InjectFromHost(ep topology.Endpoint, pkt *wire.Packet) error
}

// TrustAnchors pin what the client trusts: the enclave platform root and
// the RVaaS code measurement (§IV-A: "through attestation, the client can
// verify that RVaaS is the one that securely responds to its queries").
type TrustAnchors struct {
	PlatformRoot ed25519.PublicKey
	Measurement  enclave.Measurement
}

// Config describes one agent.
type Config struct {
	ClientID uint64
	Access   topology.AccessPoint
	NIC      NIC
	Trust    TrustAnchors
	// ResponseTimeout bounds Query; default 2s.
	ResponseTimeout time.Duration
}

// Agent is a running client agent.
type Agent struct {
	cfg  Config
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
	// sessionID names this agent's session in its envelopes; subscriptions
	// registered under it survive a controller restart and are resumed with
	// one ResumeSession exchange.
	sessionID uint64
	// sigChecks counts message signatures checked under the pinned key.
	sigChecks atomic.Uint64

	mu      sync.Mutex
	waiting map[uint64]chan *wire.QueryResponse // by nonce
	ackWait map[uint64]chan *wire.Notification  // by unsubscribe-op nonce
	envWait map[uint64]chan *wire.Envelope      // by envelope correlation id (registration/resume replies)
	subs    map[uint64]*Subscription            // by subscription id
	// subsByNonce routes notifications that arrive before the registration
	// reply has been processed locally (the server may push a violation for a brand-new
	// subscription ahead of the client registering its id).
	subsByNonce map[uint64]*Subscription
	serverKey   ed25519.PublicKey
	// attestedQuote: the exact bytes that passed enclave.VerifyKeyQuote for
	// serverKey. pinSeq counts pins, so a check racing a re-pin is not kept.
	attestedQuote []byte
	pinSeq        uint64
	quoteChecks   uint64
	authSeen      uint64
	dropped       uint64
	gapsSeen      uint64
	resumes       uint64
	gapC          chan GapEvent
	closed        bool
	// resumeShared coalesces concurrent gap recoveries: while a
	// ResumeSession exchange is in flight, later recoveries wait on this
	// channel and reuse resumeResult/resumeErr instead of issuing their
	// own exchange (one resume rebases EVERY subscription anyway).
	resumeShared chan struct{}
	resumeResult []wire.ResumeVerdict
	resumeErr    error
	// reasm rebuilds logical envelopes from OpChunk continuation frames (a
	// large batch reply, or a pass's push batch split across wire frames).
	reasm *wire.Reassembler
}

// Subscription is one standing invariant registered with RVaaS. Verified
// violation/recovery notifications arrive on C; the channel is closed by
// Unsubscribe or Close.
type Subscription struct {
	ID   uint64
	Kind wire.QueryKind
	// InitialStatus/InitialDetail carry the invariant's verdict at
	// registration time (from the signed registration reply).
	InitialStatus wire.ResponseStatus
	InitialDetail string
	C             <-chan *wire.Notification

	nonce uint64
	ch    chan *wire.Notification
	// constraints/param are retained so a detected notification gap can be
	// healed by transparently re-registering the same invariant.
	constraints []wire.FieldConstraint
	param       string
	// lastSeq is the highest delivered notification sequence (guarded by
	// the agent mutex): replayed or out-of-order notifications — old but
	// genuinely signed server messages an on-path adversary re-injects —
	// are dropped, not delivered as fresh events.
	lastSeq uint64
	// resubbing marks an in-flight gap recovery so one burst of losses
	// triggers exactly one re-subscribe (guarded by the agent mutex).
	// While it is set, pendingNonce identifies the replacement server-side
	// subscription and pendingLastSeq tracks ITS sequence stream: the
	// replacement restarts numbering at 1, so its pushes must not be
	// judged against the superseded stream's lastSeq (they would all look
	// like replays until the old high-water mark was passed).
	resubbing      bool
	pendingNonce   uint64
	pendingLastSeq uint64
	// unsubscribing marks a user-initiated teardown in flight; a
	// concurrent gap recovery must not rebind (resurrect) the
	// subscription past it. chClosed makes channel closing idempotent
	// across Unsubscribe/Close/recovery interleavings. Both guarded by
	// the agent mutex.
	unsubscribing bool
	chClosed      bool
}

// GapEvent reports a detected notification loss on one subscription:
// either the server's Notification.Seq skipped ahead (an in-band push was
// lost or suppressed) or the local delivery channel overflowed. Delivery
// is fire-and-forget Packet-Out, so the agent heals the hole itself —
// normally with a session resume (OpSessionResume) that resynchronizes the
// client in place, falling back to re-registering the invariant (and
// retiring the stale server-side subscription) when the server cannot
// resume it. The event is surfaced on Agent.Gaps after recovery completes.
type GapEvent struct {
	// SubID is the subscription id at detection time. NewSubID == SubID
	// marks an in-place session-resume resync (the server-side subscription
	// survived; per-SubID client state remains valid); a different NewSubID
	// marks the re-subscribe fallback (a replacement server-side
	// subscription); zero means recovery failed — see Err.
	SubID    uint64
	NewSubID uint64
	// MissedFrom/MissedTo bound the lost sequence range.
	MissedFrom uint64
	MissedTo   uint64
	// Status/Detail carry the invariant's current verdict from the resume
	// reply or the re-registration reply.
	Status wire.ResponseStatus
	Detail string
	// Err is non-nil when the automatic re-subscribe failed; the next gap
	// (or drop) retries.
	Err error
}

// New creates an agent with a fresh key pair.
func New(cfg Config) (*Agent, error) {
	if cfg.NIC == nil {
		return nil, errors.New("client: config needs a NIC")
	}
	if cfg.ResponseTimeout == 0 {
		cfg.ResponseTimeout = 2 * time.Second
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("client: keygen: %w", err)
	}
	session, err := randomNonce()
	if err != nil {
		return nil, err
	}
	return &Agent{
		cfg:         cfg,
		pub:         pub,
		priv:        priv,
		sessionID:   session,
		waiting:     make(map[uint64]chan *wire.QueryResponse),
		ackWait:     make(map[uint64]chan *wire.Notification),
		envWait:     make(map[uint64]chan *wire.Envelope),
		subs:        make(map[uint64]*Subscription),
		subsByNonce: make(map[uint64]*Subscription),
		gapC:        make(chan GapEvent, 16),
		reasm:       wire.NewReassembler(0),
	}, nil
}

// SessionID returns the agent's session identifier.
func (a *Agent) SessionID() uint64 { return a.sessionID }

// PublicKey returns the agent's auth-reply verification key (registered
// with RVaaS out of band).
func (a *Agent) PublicKey() ed25519.PublicKey { return a.pub }

// ClientID returns the agent's identity.
func (a *Agent) ClientID() uint64 { return a.cfg.ClientID }

// AuthRequestsSeen counts authentication requests this agent answered.
func (a *Agent) AuthRequestsSeen() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.authSeen
}

// QuoteVerifications counts quotes actually checked under the platform root
// key: one per pinned key, plus any message presenting some other quote.
func (a *Agent) QuoteVerifications() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.quoteChecks
}

// SignatureVerifications counts server message signatures actually checked
// under the pinned key: one per reply, ack or push batch that had a taker.
// Messages nobody here waits for are discarded before any signature work.
func (a *Agent) SignatureVerifications() uint64 { return a.sigChecks.Load() }

// ChainsDropped counts chunked server messages discarded before their chain
// completed (evicted, torn or carrying a duplicated fragment). Pushes are
// fire-and-forget, so on a lossy channel this is a normal event; the loss
// itself surfaces as a Seq gap on the stream's next push.
func (a *Agent) ChainsDropped() uint64 { return a.reasm.Dropped() }

// NotificationsDropped counts verified notifications discarded as replayed
// or out of order, or because a subscription channel was full.
func (a *Agent) NotificationsDropped() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}

// GapsDetected counts notification-loss events that triggered automatic
// gap recovery.
func (a *Agent) GapsDetected() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gapsSeen
}

// Gaps surfaces notification-loss recoveries (see GapEvent). The channel
// is buffered and never closed; read it with select. Events that find the
// buffer full are discarded — GapsDetected still counts them.
func (a *Agent) Gaps() <-chan GapEvent { return a.gapC }

// closeSubLocked closes a subscription's channel exactly once across
// Unsubscribe/Close/gap-recovery interleavings. Callers hold a.mu.
func (a *Agent) closeSubLocked(sub *Subscription) {
	if !sub.chClosed {
		sub.chClosed = true
		close(sub.ch)
	}
}

// Close fails all outstanding queries and closes subscription channels.
func (a *Agent) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	for nonce, ch := range a.waiting {
		close(ch)
		delete(a.waiting, nonce)
	}
	for nonce, ch := range a.ackWait {
		close(ch)
		delete(a.ackWait, nonce)
	}
	for corr, ch := range a.envWait {
		close(ch)
		delete(a.envWait, corr)
	}
	for id, sub := range a.subs {
		a.closeSubLocked(sub)
		delete(a.subs, id)
	}
	// Pending subscriptions (sent, reply not yet processed) live only in the
	// nonce index; established ones appear in both maps — closeSubLocked
	// is idempotent.
	for nonce, sub := range a.subsByNonce {
		a.closeSubLocked(sub)
		delete(a.subsByNonce, nonce)
	}
}

// HandleFrame is the agent's NIC receive path at its primary access point;
// attach it to the fabric as the host handler.
func (a *Agent) HandleFrame(pkt *wire.Packet) {
	a.handleEnvelope(a.cfg.Access, pkt)
}

// HandlerFor returns a receive path bound to one of the client's (possibly
// several) access points; auth replies are injected back at that point.
func (a *Agent) HandlerFor(ap topology.AccessPoint) func(*wire.Packet) {
	return func(pkt *wire.Packet) { a.handleEnvelope(ap, pkt) }
}

// handleEnvelope unwraps one frame received at ap: anything but an RVaaS
// envelope is ordinary traffic and ignored; auth challenges are answered
// from ap, query responses, acks and push batches go to their body handlers,
// batch and resume replies route to their correlation waiter.
func (a *Agent) handleEnvelope(ap topology.AccessPoint, pkt *wire.Packet) {
	if !pkt.IsRVaaSV2Reply() {
		return
	}
	env, err := wire.UnmarshalEnvelope(pkt.Payload)
	if err != nil {
		return
	}
	if env.Op == wire.OpChunk {
		// Continuation frame of a chunked reply or push: fold it into its
		// chain and dispatch only the completed logical envelope (the
		// inner signature is verified once, after reassembly).
		full, err := a.reasm.Accept(uint64(pkt.EthSrc)^uint64(pkt.IPSrc), env)
		if err != nil || full == nil {
			return
		}
		env = full
	}
	switch env.Op {
	case wire.OpAuthChallenge:
		a.handleAuthRequest(ap, env.Body)
	case wire.OpQueryResponse:
		a.handleResponse(env.Body)
	case wire.OpNotify:
		a.handleAck(env.Body)
	case wire.OpNotifyBatch:
		a.handleNotifyBatch(env.Body)
	case wire.OpBatchReply, wire.OpSessionResumeReply:
		a.mu.Lock()
		ch, ok := a.envWait[env.CorrelationID]
		if ok {
			delete(a.envWait, env.CorrelationID)
		}
		a.mu.Unlock()
		if ok {
			ch <- env
		}
	}
}

// handleAuthRequest publishes the agent: it signs the challenge and sends
// the magic-header reply that the ingress switch reports to RVaaS.
func (a *Agent) handleAuthRequest(ap topology.AccessPoint, body []byte) {
	ar, err := wire.UnmarshalAuthRequest(body)
	if err != nil {
		return
	}
	a.mu.Lock()
	a.authSeen++
	closed := a.closed
	a.mu.Unlock()
	if closed {
		return
	}
	rep := &wire.AuthReply{
		QueryNonce: ar.QueryNonce,
		Challenge:  ar.Challenge,
		ClientID:   a.cfg.ClientID,
		PubKey:     a.pub,
	}
	rep.Signature = ed25519.Sign(a.priv, rep.SigningBytes())
	// Best-effort: a lost reply shows up in the querier's response as
	// AuthReplied < AuthRequested.
	_ = a.send(ap, wire.OpAuthReply, rep.Challenge, rep.Marshal())
}

// handleResponse verifies and routes an RVaaS response to its waiter.
func (a *Agent) handleResponse(payload []byte) {
	resp, err := wire.UnmarshalQueryResponse(payload)
	if err != nil {
		return
	}
	a.mu.Lock()
	ch, ok := a.waiting[resp.Nonce]
	if ok {
		delete(a.waiting, resp.Nonce)
	}
	a.mu.Unlock()
	if !ok {
		return
	}
	ch <- resp
}

// VerifyResponse checks the response signature and the attestation quote
// against the agent's trust anchors.
func (a *Agent) VerifyResponse(resp *wire.QueryResponse) error {
	return a.verifyFromServer(resp.SigningBytes(), resp.Signature, resp.Quote)
}

// VerifyNotification checks a subscription notification's signature and
// attestation quote against the agent's trust anchors.
func (a *Agent) VerifyNotification(n *wire.Notification) error {
	return a.verifyFromServer(n.SigningBytes(), n.Signature, n.Quote)
}

// verifyFromServer checks an enclave signature plus attestation quote over
// canonical bytes against the agent's trust anchors.
func (a *Agent) verifyFromServer(signing, sig, quoteBytes []byte) error {
	// The quote's report data commits to sha256(serviceKey); the key itself
	// is pinned at registration time (PinServerKey). Verify the pinned key
	// against the quote, then the signature against the key. The quote check
	// is a pure function of (root, quote, measurement, key), so bytes equal
	// to those that passed it under this pin are not checked again.
	a.mu.Lock()
	key, pin := a.serverKey, a.pinSeq
	attested := a.attestedQuote != nil && bytes.Equal(quoteBytes, a.attestedQuote)
	a.mu.Unlock()
	if len(key) == 0 {
		return fmt.Errorf("%w: no pinned server key", ErrBadAttestation)
	}
	if !attested {
		quote, err := enclave.UnmarshalQuote(quoteBytes)
		if err == nil {
			err = enclave.VerifyKeyQuote(a.cfg.Trust.PlatformRoot, quote, a.cfg.Trust.Measurement, key)
			a.mu.Lock()
			a.quoteChecks++
			if err == nil && a.pinSeq == pin {
				a.attestedQuote = append([]byte(nil), quoteBytes...)
			}
			a.mu.Unlock()
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadAttestation, err)
		}
	}
	a.sigChecks.Add(1)
	if !enclave.VerifyFrom(key, signing, sig) {
		return ErrBadSignature
	}
	return nil
}

// PinServerKey pins the RVaaS service key (obtained out of band or from a
// prior attested exchange); VerifyResponse checks quotes against it.
func (a *Agent) PinServerKey(key ed25519.PublicKey) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.serverKey = append(ed25519.PublicKey(nil), key...)
	a.attestedQuote = nil
	a.pinSeq++
}

// Query sends a verification query and waits for the verified response.
func (a *Agent) Query(kind wire.QueryKind, constraints []wire.FieldConstraint, param string) (*wire.QueryResponse, error) {
	nonce, err := randomNonce()
	if err != nil {
		return nil, err
	}
	q := &wire.QueryRequest{
		Version:     wire.CurrentVersion,
		Kind:        kind,
		ClientID:    a.cfg.ClientID,
		Nonce:       nonce,
		Constraints: constraints,
		Param:       param,
	}
	ch := make(chan *wire.QueryResponse, 1)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, ErrClosed
	}
	a.waiting[nonce] = ch
	a.mu.Unlock()

	if err := a.send(a.cfg.Access, wire.OpQuery, nonce, q.Marshal()); err != nil {
		a.mu.Lock()
		delete(a.waiting, nonce)
		a.mu.Unlock()
		return nil, err
	}
	timer := time.NewTimer(a.cfg.ResponseTimeout)
	defer timer.Stop()
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		if err := a.VerifyResponse(resp); err != nil {
			return nil, err
		}
		return resp, nil
	case <-timer.C:
		a.mu.Lock()
		delete(a.waiting, nonce)
		a.mu.Unlock()
		return nil, ErrTimeout
	}
}

// handleAck verifies the signed ack (or rejection) of an unsubscribe op and
// hands it to the op's waiter. An ack nobody waits for — the op timed out,
// or it answers a fire-and-forget cleanup — is discarded before any
// signature work. Verdict transitions never arrive this way: they are
// pushed as batches (handleNotifyBatch), and an OpNotify claiming to be one
// is ignored.
func (a *Agent) handleAck(payload []byte) {
	n, err := wire.UnmarshalNotification(payload)
	if err != nil || (n.Event != wire.NotifyAck && n.Event != wire.NotifyError) {
		return
	}
	a.mu.Lock()
	_, waited := a.ackWait[n.Nonce]
	a.mu.Unlock()
	if !waited || a.VerifyNotification(n) != nil {
		return
	}
	a.mu.Lock()
	ch, ok := a.ackWait[n.Nonce]
	if ok {
		delete(a.ackWait, n.Nonce)
	}
	a.mu.Unlock()
	if ok {
		ch <- n
	}
}

// subFor routes one pushed item to its subscription: by id, else by nonce —
// the server can push a transition for a fresh subscription before this
// agent has processed the ack. Callers hold a.mu.
func (a *Agent) subFor(it *wire.NotifyItem) (*Subscription, bool) {
	if sub, ok := a.subs[it.SubID]; ok {
		return sub, true
	}
	sub, ok := a.subsByNonce[it.Nonce]
	return sub, ok
}

// handleNotifyBatch takes one push: the verdict transitions one server pass
// produced for this session, under one signature. A batch none of whose
// items has a subscription here (e.g. it belongs to another session at this
// access point) is discarded before any signature work; otherwise the batch
// is verified ONCE and, only if it verifies, every item goes through its
// subscription's replay/gap check in batch order. Nothing reaches a
// Subscription channel — and no sequence baseline moves — unverified.
func (a *Agent) handleNotifyBatch(payload []byte) {
	b, err := wire.UnmarshalNotifyBatch(payload)
	if err != nil {
		return
	}
	routable := false
	a.mu.Lock()
	for i := range b.Items {
		if _, routable = a.subFor(&b.Items[i]); routable {
			break
		}
	}
	a.mu.Unlock()
	if !routable || a.verifyFromServer(b.SigningBytes(), b.Signature, b.Quote) != nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range b.Items {
		if sub, ok := a.subFor(&b.Items[i]); ok {
			a.deliverLocked(sub, b.Notification(i))
		}
	}
}

// deliverLocked runs one verified violation/recovery notification through
// its subscription's sequence check and onto its channel. Callers hold a.mu.
func (a *Agent) deliverLocked(sub *Subscription, n *wire.Notification) {
	// Each server-side subscription numbers its pushes independently;
	// during gap recovery two streams can target this Subscription — the
	// superseded one (by SubID / original nonce) and the replacement's (by
	// the recovery nonce, before the reply is processed). Judge each against
	// its own counter.
	seqRef := &sub.lastSeq
	if sub.resubbing && n.Nonce == sub.pendingNonce && n.Nonce != sub.nonce {
		seqRef = &sub.pendingLastSeq
	}
	if n.Seq <= *seqRef {
		// Replayed or out-of-order: a valid signature only proves the
		// server said this once, not that it is current.
		a.dropped++
		return
	}
	// Delivery is fire-and-forget Packet-Out: a skipped Seq means a push was
	// lost in flight (or deliberately suppressed), and a full local channel
	// loses this one. Both leave the client's view of its invariant stale,
	// so both trigger the same recovery (recoverGap).
	gap := n.Seq != *seqRef+1
	from, to := *seqRef+1, n.Seq-1
	*seqRef = n.Seq
	select {
	case sub.ch <- n:
	default:
		a.dropped++
		gap, to = true, n.Seq
	}
	// A gap on a subscription whose registration reply is still in flight
	// (ID == 0, routed here by nonce) cannot recover: there is no
	// server-side id to resync or retire yet, and re-registering would leak
	// the original registration as a permanent duplicate. The push that
	// exposed the gap already carries the freshest verdict; register
	// baselines lastSeq when the reply lands.
	if gap && sub.ID != 0 && !sub.resubbing && !sub.unsubscribing && !a.closed {
		sub.resubbing = true
		a.gapsSeen++
		go a.recoverGap(sub, from, to)
	}
}

// recoverGap heals one notification loss. It first resumes the session
// (OpSessionResume): one signed exchange rebases EVERY subscription of the
// session — verdict and sequence baseline — while the server keeps the
// subscription (and its footprint, cone cache and index state) untouched;
// resumes racing from a burst of gaps coalesce onto a single in-flight
// exchange, and a restarted-then-restored controller resumes the whole
// fleet without a single re-subscribe. Only when the server cannot resume
// this subscription (it no longer knows it, e.g. after an unrestored
// controller restart) or every resume attempt is lost does recovery fall
// back to the heavyweight path: re-register the invariant under a fresh
// nonce, atomically rebind the local Subscription to the new server-side
// id, and retire the superseded subscription. On failure the subscription
// is left untouched and the next detected loss retries.
func (a *Agent) recoverGap(sub *Subscription, missedFrom, missedTo uint64) {
	a.mu.Lock()
	oldID, oldNonce := sub.ID, sub.nonce
	a.mu.Unlock()
	ev := GapEvent{SubID: oldID, MissedFrom: missedFrom, MissedTo: missedTo}

	// The resume retries under a short bounded backoff before recovery
	// escalates: on a lossy channel a recovery exchange is as likely to
	// lose a frame as the notification whose loss triggered it, and the
	// re-subscribe below costs the server a fresh registration. A
	// deterministic refusal (the server answers but cannot resume this
	// subscription) escalates immediately.
	bo := backoff.New(gapRecoveryPolicy)
	for {
		entries, err := a.sharedResume()
		for _, ent := range entries {
			if ent.SubID != oldID || ent.Status == wire.StatusError {
				continue
			}
			// ResumeSession already rebased lastSeq under the lock.
			a.mu.Lock()
			stillBound := !a.closed && !sub.unsubscribing && sub.ID == oldID
			sub.resubbing = false
			a.mu.Unlock()
			if stillBound {
				ev.NewSubID, ev.Status, ev.Detail = oldID, ent.Status, ent.Detail
				a.emitGap(ev)
			}
			return
		}
		if err == nil || bo.Exhausted() {
			break
		}
		time.Sleep(bo.Next())
		a.mu.Lock()
		gone := a.closed || sub.unsubscribing
		if gone {
			sub.resubbing = false
		}
		a.mu.Unlock()
		if gone {
			return
		}
	}
	fail := func(err error) {
		a.mu.Lock()
		sub.resubbing = false
		sub.pendingNonce = 0
		a.mu.Unlock()
		ev.Err = err
		a.emitGap(ev)
	}

	// Re-register as a one-item batch. The exchange routes the replacement
	// by its nonce from the start, as pendingNonce: a transition pushed for
	// it must not be lost between the server-side registration and our
	// processing of the reply, and its fresh numbering must not be judged
	// against the superseded stream's lastSeq.
	items, err := a.register([]*Subscription{sub}, true)
	if err == nil && !registered(items[0]) {
		err = rejected(items[0].Detail)
	}
	if err != nil {
		fail(err)
		return
	}
	ack := items[0]

	a.mu.Lock()
	if a.closed || sub.unsubscribing {
		// Close or a user Unsubscribe ran while the reply was in flight:
		// rebinding would resurrect the subscription (and route future
		// pushes onto a closed channel). Retire the freshly registered
		// replacement instead.
		unsubscribing := sub.unsubscribing && !a.closed
		sub.resubbing = false
		delete(a.subsByNonce, sub.pendingNonce)
		sub.pendingNonce = 0
		a.mu.Unlock()
		if unsubscribing {
			a.removeServerSub(ack.SubID)
		}
		return
	}
	delete(a.subs, oldID)
	delete(a.subsByNonce, oldNonce)
	sub.ID = ack.SubID
	sub.nonce = sub.pendingNonce
	// Rebase on the replacement's numbering: pushes already routed through
	// the pending stream advanced pendingLastSeq, and the exchange raised it
	// to the reply's seq (an initially-violated replacement consumed one
	// without any push existing for it).
	sub.lastSeq = sub.pendingLastSeq
	sub.pendingNonce = 0
	sub.pendingLastSeq = 0
	a.subs[sub.ID] = sub
	sub.resubbing = false
	a.mu.Unlock()
	ev.NewSubID, ev.Status, ev.Detail = ack.SubID, ack.Status, ack.Detail
	a.emitGap(ev)

	// Retire the superseded server-side subscription; removal is
	// idempotent, so a failure here only costs the server a dead invariant
	// until the client unsubscribes for real.
	a.removeServerSub(oldID)
}

// emitGap publishes one recovery outcome without ever blocking the caller.
func (a *Agent) emitGap(ev GapEvent) {
	select {
	case a.gapC <- ev:
	default:
	}
}

// unsubscribeOp signs and sends the removal of server-side subscription
// id and waits for the verified ack. A removal mutates server state, so
// unlike a read-only query it carries the client's signature (verified
// against the key registered with RVaaS).
func (a *Agent) unsubscribeOp(id uint64) (*wire.Notification, error) {
	nonce, err := randomNonce()
	if err != nil {
		return nil, err
	}
	s := &wire.SubscribeRequest{
		Version:  wire.CurrentVersion,
		Op:       wire.SubOpRemove,
		ClientID: a.cfg.ClientID,
		Nonce:    nonce,
		SubID:    id,
	}
	s.Signature = ed25519.Sign(a.priv, wire.SessionSigningBytes(s.SigningBytes(), a.sessionID))
	ch := make(chan *wire.Notification, 1)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, ErrClosed
	}
	a.ackWait[nonce] = ch
	a.mu.Unlock()

	if err := a.send(a.cfg.Access, wire.OpUnsubscribe, nonce, s.Marshal()); err != nil {
		a.mu.Lock()
		delete(a.ackWait, nonce)
		a.mu.Unlock()
		return nil, err
	}
	timer := time.NewTimer(a.cfg.ResponseTimeout)
	defer timer.Stop()
	select {
	case ack, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		return ack, nil
	case <-timer.C:
		a.mu.Lock()
		delete(a.ackWait, nonce)
		a.mu.Unlock()
		return nil, ErrTimeout
	}
}

// newSubscription builds the local half of one invariant to register.
func newSubscription(it wire.BatchItem) *Subscription {
	sub := &Subscription{
		Kind:        it.Kind,
		ch:          make(chan *wire.Notification, 32),
		constraints: append([]wire.FieldConstraint(nil), it.Constraints...),
		param:       it.Param,
	}
	sub.C = sub.ch
	return sub
}

// registered reports whether a registration reply item names a live
// subscription.
func registered(it wire.BatchReplyItem) bool {
	return it.SubID != 0 && it.Status != wire.StatusError
}

// rejected is the error of a registration the server refused.
func rejected(detail string) error {
	return fmt.Errorf("client: subscription rejected: %s", detail)
}

// register is the one registration exchange: Subscribe (a one-item batch),
// BatchSubscribe and gap recovery's re-register fallback all send their
// invariants through it as one signed OpBatchSubscribe. Each subscription
// is routed under its item's derived nonce BEFORE sending, so a violation
// pushed for a brand-new server-side subscription ahead of the reply is not
// lost (handleNotifyBatch falls back to nonce routing). A fresh
// subscription takes that nonce as its own and is bound to its new id
// here; a replacing one (gap recovery) takes it as pendingNonce and the
// caller rebinds it. Either way the item's Seq baselines gap detection on
// the stream the item starts — lastSeq, or pendingLastSeq — because an
// initially-violated invariant consumes sequence numbers without a push
// existing for them; only raise, since a push racing the reply may already
// have advanced it. The returned reply items are index-aligned with subs;
// a rejected item is unrouted and carries the server's reason in Detail.
// An error fails the whole exchange and leaves nothing routed.
func (a *Agent) register(subs []*Subscription, replacing bool) ([]wire.BatchReplyItem, error) {
	nonce, err := randomNonce()
	if err != nil {
		return nil, err
	}
	req := &wire.BatchSubscribeRequest{
		Version:      wire.CurrentVersion,
		ClientID:     a.cfg.ClientID,
		Nonce:        nonce,
		AnchorSwitch: uint32(a.cfg.Access.Endpoint.Switch),
		AnchorPort:   uint32(a.cfg.Access.Endpoint.Port),
		Items:        make([]wire.BatchItem, len(subs)),
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, ErrClosed
	}
	for i, sub := range subs {
		n := wire.BatchItemNonce(nonce, i)
		if replacing {
			sub.pendingNonce, sub.pendingLastSeq = n, 0
		} else {
			sub.nonce = n
		}
		a.subsByNonce[n] = sub
		req.Items[i] = wire.BatchItem{Kind: sub.Kind, Constraints: sub.constraints, Param: sub.param}
	}
	a.mu.Unlock()
	req.Signature = ed25519.Sign(a.priv, wire.SessionSigningBytes(req.SigningBytes(), a.sessionID))

	var reply *wire.BatchReply
	env, err := a.rpcEnvelope(wire.OpBatchSubscribe, nonce, req.Marshal())
	if err == nil {
		reply, err = wire.UnmarshalBatchReply(env.Body)
	}
	if err == nil {
		err = a.verifyFromServer(reply.SigningBytes(), reply.Signature, reply.Quote)
	}
	if err == nil && reply.Status == wire.StatusError {
		err = rejected(reply.Detail)
	}
	if errors.Is(err, ErrTimeout) {
		// The server may have registered the batch and lost only the reply:
		// clean up every item by its registration nonce so no orphan keeps
		// evaluating (and pushing) forever.
		for i := range subs {
			a.abandonSubscription(wire.BatchItemNonce(nonce, i))
		}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	if err == nil && a.closed && !replacing {
		err = ErrClosed
	}
	items := make([]wire.BatchReplyItem, len(subs))
	if err == nil {
		copy(items, reply.Items)
	}
	for i, sub := range subs {
		it := items[i]
		switch {
		case err != nil || !registered(it):
			delete(a.subsByNonce, wire.BatchItemNonce(nonce, i))
		case replacing:
			sub.pendingLastSeq = max(sub.pendingLastSeq, it.Seq)
		default:
			// ID is assigned under the lock: the notification handler reads
			// it to decide whether gap recovery may run.
			sub.ID, sub.InitialStatus, sub.InitialDetail = it.SubID, it.Status, it.Detail
			sub.lastSeq = max(sub.lastSeq, it.Seq)
			a.subs[sub.ID] = sub
		}
	}
	if err != nil {
		return nil, err
	}
	return items, nil
}

// Subscribe registers a standing invariant with RVaaS: instead of polling
// with repeated queries, the agent is notified whenever the invariant's
// verdict changes. The returned subscription carries the verdict at
// registration time and a channel of subsequent verified notifications.
// It is a one-item BatchSubscribe that reports a rejected item as an error.
func (a *Agent) Subscribe(kind wire.QueryKind, constraints []wire.FieldConstraint, param string) (*Subscription, error) {
	sub := newSubscription(wire.BatchItem{Kind: kind, Constraints: constraints, Param: param})
	items, err := a.register([]*Subscription{sub}, false)
	if err != nil {
		return nil, err
	}
	if !registered(items[0]) {
		return nil, rejected(items[0].Detail)
	}
	return sub, nil
}

// BatchSubscribe registers many standing invariants in ONE signed
// exchange: one client signature covers every item, the server
// fans the initial evaluations across its worker pool, and one verified
// reply signature covers every ack. The returned slice is index-aligned
// with items; an item the server rejected is nil at its position, even
// when every item was rejected — inspect the result. The error reports a
// failure of the whole exchange: a timeout, a reply that does not verify,
// or a batch the server refused outright (bad signature, foreign anchor,
// replayed nonce).
func (a *Agent) BatchSubscribe(items []wire.BatchItem) ([]*Subscription, error) {
	if len(items) == 0 {
		return nil, nil
	}
	subs := make([]*Subscription, len(items))
	for i, it := range items {
		subs[i] = newSubscription(it)
	}
	replies, err := a.register(subs, false)
	if err != nil {
		return nil, err
	}
	for i, it := range replies {
		if !registered(it) {
			subs[i] = nil
		}
	}
	return subs, nil
}

// ResumeSession resynchronizes every subscription of this agent's session
// in one signed exchange — the recovery path after notification loss or a
// controller restart whose persistence layer restored the server-side set.
// Each live entry rebases the subscription's gap-detection baseline on the
// server's current sequence number; entries the server cannot resume come
// back StatusError and are left untouched (callers re-subscribe those).
// The verified reply entries are returned for inspection.
func (a *Agent) ResumeSession() ([]wire.ResumeVerdict, error) {
	nonce, err := randomNonce()
	if err != nil {
		return nil, err
	}
	req := &wire.SessionResumeRequest{
		Version:   wire.CurrentVersion,
		ClientID:  a.cfg.ClientID,
		Nonce:     nonce,
		SessionID: a.sessionID,
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, ErrClosed
	}
	for id, sub := range a.subs {
		req.Entries = append(req.Entries, wire.ResumeEntry{SubID: id, LastSeq: sub.lastSeq})
	}
	a.resumes++
	a.mu.Unlock()
	req.Signature = ed25519.Sign(a.priv,
		wire.SessionSigningBytes(req.SigningBytes(), a.sessionID))
	env, err := a.rpcEnvelope(wire.OpSessionResume, nonce, req.Marshal())
	if err != nil {
		return nil, err
	}
	reply, err := wire.UnmarshalSessionResumeReply(env.Body)
	if err != nil {
		return nil, err
	}
	if err := a.verifyFromServer(reply.SigningBytes(), reply.Signature, reply.Quote); err != nil {
		return nil, err
	}
	if reply.Status == wire.StatusError {
		return nil, fmt.Errorf("client: session resume rejected: %s", reply.Detail)
	}
	a.mu.Lock()
	for _, ent := range reply.Entries {
		if ent.Status == wire.StatusError {
			continue
		}
		if sub, ok := a.subs[ent.SubID]; ok {
			// Rebase gap detection: every push at or below the resumed seq
			// is superseded by the verdict we now hold. Only raise — a
			// fresh push may already have advanced the counter.
			if ent.Seq > sub.lastSeq {
				sub.lastSeq = ent.Seq
			}
		}
	}
	a.mu.Unlock()
	return reply.Entries, nil
}

// sharedResume coalesces concurrent gap recoveries into one in-flight
// ResumeSession: the first caller performs the exchange, every caller that
// arrives while it is in flight waits and shares its result. A burst of
// gaps across many subscriptions (the post-restart steady state) thus
// costs ONE signed round-trip, not one per subscription.
func (a *Agent) sharedResume() ([]wire.ResumeVerdict, error) {
	a.mu.Lock()
	if ch := a.resumeShared; ch != nil {
		a.mu.Unlock()
		<-ch
		a.mu.Lock()
		res, err := a.resumeResult, a.resumeErr
		a.mu.Unlock()
		return res, err
	}
	ch := make(chan struct{})
	a.resumeShared = ch
	a.mu.Unlock()

	res, err := a.ResumeSession()
	a.mu.Lock()
	a.resumeResult, a.resumeErr = res, err
	a.resumeShared = nil
	a.mu.Unlock()
	close(ch)
	return res, err
}

// SessionResumesSent counts ResumeSession exchanges this agent issued
// (including those triggered by automatic gap recovery).
func (a *Agent) SessionResumesSent() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.resumes
}

// abandonSubscription fire-and-forgets a signed remove-by-nonce for a
// registration whose reply never arrived (no SubID is known). The ack to
// this cleanup op is intentionally unrouted.
func (a *Agent) abandonSubscription(nonce uint64) {
	opNonce, err := randomNonce()
	if err != nil {
		return
	}
	req := &wire.SubscribeRequest{
		Version:  wire.CurrentVersion,
		Op:       wire.SubOpRemove,
		ClientID: a.cfg.ClientID,
		Nonce:    opNonce,
		RefNonce: nonce,
	}
	req.Signature = ed25519.Sign(a.priv, wire.SessionSigningBytes(req.SigningBytes(), a.sessionID))
	_ = a.send(a.cfg.Access, wire.OpUnsubscribe, req.Nonce, req.Marshal())
}

// send injects one operation at access point ap as an envelope under the
// agent's session. A logical envelope past the frame budget (e.g. a
// 10⁴-item batch registration) goes out as OpChunk continuation frames; the
// controller reassembles before dispatch, so no single wire frame ever
// exceeds the budget.
func (a *Agent) send(ap topology.AccessPoint, op wire.Op, corr uint64, body []byte) error {
	frames, err := wire.ChunkEnvelope(&wire.Envelope{
		Version:       wire.EnvelopeVersion,
		Op:            op,
		CorrelationID: corr,
		SessionID:     a.sessionID,
		Body:          body,
	}, 0)
	if err != nil {
		return err
	}
	for _, fr := range frames {
		pkt := wire.NewEnvelopePacket(ap.HostMAC, ap.HostIP, fr)
		if err := a.cfg.NIC.InjectFromHost(ap.Endpoint, pkt); err != nil {
			return err
		}
	}
	return nil
}

// rpcEnvelope sends one operation and waits for its correlated reply
// envelope (registration and resume ops).
func (a *Agent) rpcEnvelope(op wire.Op, corr uint64, body []byte) (*wire.Envelope, error) {
	ch := make(chan *wire.Envelope, 1)
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, ErrClosed
	}
	a.envWait[corr] = ch
	a.mu.Unlock()
	if err := a.send(a.cfg.Access, op, corr, body); err != nil {
		a.mu.Lock()
		delete(a.envWait, corr)
		a.mu.Unlock()
		return nil, err
	}
	timer := time.NewTimer(a.cfg.ResponseTimeout)
	defer timer.Stop()
	select {
	case env, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		return env, nil
	case <-timer.C:
		a.mu.Lock()
		delete(a.envWait, corr)
		a.mu.Unlock()
		return nil, ErrTimeout
	}
}

// Unsubscribe removes a standing invariant and closes its channel. It is
// safe against a concurrent gap recovery: the unsubscribing flag stops
// any in-flight recovery from rebinding (resurrecting) the subscription,
// and if a recovery rebound it to a replacement server id before the flag
// was seen, that replacement is retired too.
func (a *Agent) Unsubscribe(sub *Subscription) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return ErrClosed
	}
	sub.unsubscribing = true
	id := sub.ID
	a.mu.Unlock()
	ack, err := a.unsubscribeOp(id)
	if err == nil && ack.Event == wire.NotifyError {
		// The server rejected the op (e.g. auth failure) and still holds
		// the subscription: keep the local state so notifications keep
		// flowing and the caller can retry. (Server-side removal is
		// idempotent, so "already gone" acks success, never error.)
		err = fmt.Errorf("client: unsubscribe rejected: %s", ack.Detail)
	}
	if err != nil {
		a.mu.Lock()
		sub.unsubscribing = false
		a.mu.Unlock()
		return err
	}
	var staleID uint64
	a.mu.Lock()
	if sub.ID != id {
		// A gap recovery rebound the subscription to a replacement server
		// id while the removal was in flight; retire that one too.
		staleID = sub.ID
	}
	for _, k := range []uint64{id, sub.ID} {
		if s, ok := a.subs[k]; ok && s == sub {
			delete(a.subs, k)
		}
	}
	delete(a.subsByNonce, sub.nonce)
	if sub.pendingNonce != 0 {
		delete(a.subsByNonce, sub.pendingNonce)
	}
	a.closeSubLocked(sub)
	a.mu.Unlock()
	if staleID != 0 {
		a.removeServerSub(staleID)
	}
	return nil
}

// removeServerSub fires a best-effort signed SubOpRemove for a server-side
// subscription id the client no longer tracks.
func (a *Agent) removeServerSub(id uint64) { _, _ = a.unsubscribeOp(id) }

func randomNonce() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("client: nonce: %w", err)
	}
	return binary.BigEndian.Uint64(b[:]), nil
}
