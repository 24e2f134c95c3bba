package rvaas

import (
	"crypto/ed25519"
	"fmt"
	"sort"

	"repro/internal/enclave"
	"repro/internal/topology"
	"repro/internal/wire"
)

// This file defines the client-facing API of RVaaS behind a thin
// transport — intercept frame, decode envelope, call the service, encode
// the reply envelope. The client protocol has one op per job: OpQuery
// (one-shot verification), OpBatchSubscribe (registration; a single
// subscribe is a one-item batch), OpUnsubscribe, and OpSessionResume (the
// one verdict read, also gap recovery's first tier).
//
// The service is layered:
//
//	transport (handlePacketIn / serveEnvelope)
//	  → authGate   signature + anchor middleware (rejects forged or
//	                replayed mutating ops before they reach the core)
//	  → coreService  the verification/subscription logic itself
//
// Acks and replies leave the service already enclave-signed, so no
// transport can forward an unsigned verdict.

// Origin identifies where a client operation entered the network: the
// ingress access point (checked against signed anchors), the requester's
// L2/L3 addresses (where replies are injected), and the session the
// operation arrived under.
type Origin struct {
	Switch topology.SwitchID
	Port   topology.PortNo
	MAC    uint64
	IP     uint32
	// SessionID is the client session named by the envelope. Subscriptions
	// inherit it, making them resumable via OpSessionResume.
	SessionID uint64
}

func (o Origin) requester() requesterInfo {
	return requesterInfo{sw: o.Switch, port: o.Port, mac: o.MAC, ip: o.IP}
}

// signAck finalizes one unsubscribe ack: snapshot id, enclave signature,
// attestation quote.
func (c *Controller) signAck(ack *wire.Notification) *wire.Notification {
	ack.SnapshotID = c.snap.snapshotID()
	ack.Signature, ack.Quote = c.enclave.SignAttested(ack.SigningBytes())
	return ack
}

// ------------------------------------------------------------ auth gate --

// authGate is the middleware layer: it verifies client signatures on every
// state-mutating or verdict-revealing operation and the signed anchor
// binding on registrations, rejecting with a signed error before the core
// is touched. Read-only unsigned ops (queries) pass through. Query is
// asynchronous (the in-band authentication round completes after a
// deadline): deliver is invoked exactly once with the signed response,
// possibly synchronously. The other operations return their signed reply
// directly.
type authGate struct {
	core coreService
	c    *Controller
}

// verifyClient checks sig over signing against clientID's registered key.
// The signed message is session-bound (wire.SessionSigningBytes): the
// envelope's SessionID field is otherwise outside every signature, and an
// on-path modifier rewriting it would silently register the subscription
// under the wrong session — breaking OpSessionResume without any party
// noticing.
func (g authGate) verifyClient(o Origin, clientID uint64, signing, sig []byte) bool {
	g.c.mu.Lock()
	pub, registered := g.c.clients[clientID]
	g.c.mu.Unlock()
	return registered && enclave.VerifyFrom(pub, wire.SessionSigningBytes(signing, o.SessionID), sig)
}

// errAck builds a signed rejection ack.
func (g authGate) errAck(kind wire.QueryKind, nonce uint64, detail string) *wire.Notification {
	return g.c.signAck(&wire.Notification{
		Version: wire.CurrentVersion,
		Event:   wire.NotifyError,
		Kind:    kind,
		Status:  wire.StatusError,
		Nonce:   nonce,
		Detail:  detail,
	})
}

func (g authGate) Query(o Origin, q *wire.QueryRequest, deliver func(*wire.QueryResponse)) {
	g.core.Query(o, q, deliver)
}

func (g authGate) Unsubscribe(o Origin, s *wire.SubscribeRequest) *wire.Notification {
	if s.Op != wire.SubOpRemove {
		return g.errAck(s.Kind, s.Nonce, fmt.Sprintf("unknown subscription op %d", s.Op))
	}
	if !g.verifyClient(o, s.ClientID, s.SigningBytes(), s.Signature) {
		return g.errAck(s.Kind, s.Nonce,
			fmt.Sprintf("subscription op not signed by registered key of client %d", s.ClientID))
	}
	return g.core.Unsubscribe(o, s)
}

func (g authGate) BatchSubscribe(o Origin, b *wire.BatchSubscribeRequest) *wire.BatchReply {
	reject := func(detail string) *wire.BatchReply {
		r := &wire.BatchReply{
			Version: wire.CurrentVersion,
			Nonce:   b.Nonce,
			Status:  wire.StatusError,
			Detail:  detail,
		}
		return g.c.signBatchReply(r)
	}
	if !g.verifyClient(o, b.ClientID, b.SigningBytes(), b.Signature) {
		return reject(fmt.Sprintf("batch not signed by registered key of client %d", b.ClientID))
	}
	// The signed anchor must match the actual ingress: a captured
	// registration frame replayed from a different port would otherwise
	// re-anchor the invariants (and their notifications) at the replayer's
	// endpoint.
	if b.AnchorSwitch != uint32(o.Switch) || b.AnchorPort != uint32(o.Port) {
		return reject(fmt.Sprintf("anchor (%d,%d) does not match ingress (%d,%d)",
			b.AnchorSwitch, b.AnchorPort, o.Switch, o.Port))
	}
	return g.core.BatchSubscribe(o, b)
}

func (g authGate) ResumeSession(o Origin, r *wire.SessionResumeRequest) *wire.SessionResumeReply {
	if !g.verifyClient(o, r.ClientID, r.SigningBytes(), r.Signature) {
		reply := &wire.SessionResumeReply{
			Version:   wire.CurrentVersion,
			Nonce:     r.Nonce,
			SessionID: r.SessionID,
			Status:    wire.StatusError,
			Detail:    fmt.Sprintf("resume not signed by registered key of client %d", r.ClientID),
		}
		return g.c.signResumeReply(reply)
	}
	return g.core.ResumeSession(o, r)
}

// --------------------------------------------------------- core service --

// coreService implements the verification and subscription logic. It
// assumes the auth gate already vetted signatures and anchors; in-process
// callers that bypass the gate are trusted by construction (they run
// inside the enclave boundary).
type coreService struct {
	c *Controller
}

func (s coreService) Query(o Origin, q *wire.QueryRequest, deliver func(*wire.QueryResponse)) {
	c := s.c
	c.mu.Lock()
	c.stats.QueriesServed++
	c.mu.Unlock()

	requester := o.requester()
	resp := &wire.QueryResponse{
		Version:    wire.CurrentVersion,
		Kind:       q.Kind,
		Nonce:      q.Nonce,
		Status:     wire.StatusOK,
		SnapshotID: c.snap.snapshotID(),
	}
	// Served from the compile cache whenever the snapshot is unchanged.
	net := c.CompiledNetwork()
	authTargets := c.answerQuery(net, requester, q, resp)
	if len(authTargets) == 0 {
		c.finalizeQuery(resp, deliver)
		return
	}
	c.startAuthRound(requester, q, resp, authTargets, deliver)
}

func (s coreService) Unsubscribe(o Origin, sr *wire.SubscribeRequest) *wire.Notification {
	c := s.c
	// Removal is idempotent: removing an already-absent subscription acks
	// success, so clients can always reconcile local teardown with the
	// server. NotifyError on a remove therefore always means the op itself
	// was rejected (bad auth), never "already gone".
	ack := &wire.Notification{
		Version: wire.CurrentVersion,
		Event:   wire.NotifyAck,
		Kind:    sr.Kind,
		Status:  wire.StatusOK,
		Nonce:   sr.Nonce,
		SubID:   sr.SubID,
	}
	if sr.SubID == 0 {
		// Removal by registration nonce: orphan cleanup after a lost
		// subscribe ack.
		if id, ok := c.unsubscribeByNonce(sr.ClientID, sr.RefNonce); ok {
			ack.SubID = id
		} else {
			ack.Detail = fmt.Sprintf("no subscription with nonce %#x (already removed)", sr.RefNonce)
		}
	} else if !c.Unsubscribe(sr.ClientID, sr.SubID) {
		ack.Detail = fmt.Sprintf("no subscription %d (already removed)", sr.SubID)
	}
	return c.signAck(ack)
}

func (s coreService) ResumeSession(o Origin, r *wire.SessionResumeRequest) *wire.SessionResumeReply {
	c := s.c
	reply := &wire.SessionResumeReply{
		Version:   wire.CurrentVersion,
		Nonce:     r.Nonce,
		SessionID: r.SessionID,
		Status:    wire.StatusOK,
	}
	// The session's live subscriptions — including ones restored from the
	// persistence store after a controller restart, which is exactly the
	// case resume exists for.
	seen := make(map[uint64]bool, len(r.Entries))
	for _, st := range c.engine.ResumeSlice(r.ClientID, r.SessionID) {
		ent := wire.ResumeVerdict{SubID: st.ID, Kind: st.Kind}
		if st.Anchor.Switch != o.Switch || st.Anchor.Port != o.Port {
			// The ingress must match the subscription's anchor, as it
			// must for a registration: a captured (authentically signed)
			// resume frame replayed from a foreign port learns no
			// verdicts.
			ent.Status = wire.StatusError
			ent.Detail = fmt.Sprintf("ingress (%d,%d) does not match subscription anchor (%d,%d)",
				o.Switch, o.Port, st.Anchor.Switch, st.Anchor.Port)
		} else {
			ent.Status = wire.StatusOK
			if st.Violated {
				ent.Status = wire.StatusViolation
			}
			ent.Seq = st.Seq
			ent.Detail = st.Detail
		}
		seen[st.ID] = true
		reply.Entries = append(reply.Entries, ent)
	}
	// Subscriptions the client believes it holds but the server does not:
	// reported explicitly so the client re-registers exactly those instead
	// of blindly re-subscribing everything.
	for _, ent := range r.Entries {
		if !seen[ent.SubID] {
			reply.Entries = append(reply.Entries, wire.ResumeVerdict{
				SubID:  ent.SubID,
				Status: wire.StatusError,
				Detail: "unknown subscription",
			})
		}
	}
	sort.Slice(reply.Entries, func(i, j int) bool { return reply.Entries[i].SubID < reply.Entries[j].SubID })
	c.svcStats.sessionResumes.Add(1)
	return c.signResumeReply(reply)
}

// signBatchReply finalizes a batch reply with snapshot id, signature and
// quote.
func (c *Controller) signBatchReply(r *wire.BatchReply) *wire.BatchReply {
	r.SnapshotID = c.snap.snapshotID()
	r.Signature, r.Quote = c.enclave.SignAttested(r.SigningBytes())
	return r
}

// signResumeReply finalizes a resume reply with snapshot id, signature and
// quote.
func (c *Controller) signResumeReply(r *wire.SessionResumeReply) *wire.SessionResumeReply {
	r.SnapshotID = c.snap.snapshotID()
	r.Signature, r.Quote = c.enclave.SignAttested(r.SigningBytes())
	return r
}

// ------------------------------------------------------------ transport --

// serveEnvelope dispatches one intercepted client envelope to the service
// and injects the reply envelope.
func (c *Controller) serveEnvelope(sw topology.SwitchID, inPort topology.PortNo, pkt *wire.Packet) {
	env, err := wire.UnmarshalEnvelope(pkt.Payload)
	if err != nil {
		return
	}
	if env.Op == wire.OpChunk {
		// Continuation frame: fold it into its chain and dispatch only the
		// completed logical envelope. Incomplete chains wait; torn or
		// replayed chains are discarded (the client times out and retries —
		// the inner signature is verified once, after reassembly).
		full, err := c.reasm.Accept(uint64(pkt.EthSrc)^uint64(pkt.IPSrc), env)
		if err != nil || full == nil {
			return
		}
		env = full
	}
	o := Origin{
		Switch:    sw,
		Port:      inPort,
		MAC:       pkt.EthSrc,
		IP:        pkt.IPSrc,
		SessionID: env.SessionID,
	}
	switch env.Op {
	case wire.OpAuthReply:
		// Infrastructure traffic of the in-band authentication round, not
		// a client API call: it feeds a pending query and gets no reply.
		rep, err := wire.UnmarshalAuthReply(env.Body)
		if err != nil {
			return
		}
		c.handleAuthReply(rep)
	case wire.OpQuery:
		q, err := wire.UnmarshalQueryRequest(env.Body)
		if err != nil {
			return
		}
		c.svc.Query(o, q, func(resp *wire.QueryResponse) {
			c.deliverReply(o, wire.OpQueryResponse, resp.Nonce, resp.Marshal())
		})
	case wire.OpUnsubscribe:
		sr, err := wire.UnmarshalSubscribeRequest(env.Body)
		if err != nil {
			return
		}
		ack := c.svc.Unsubscribe(o, sr)
		c.deliverReply(o, wire.OpNotify, ack.Nonce, ack.Marshal())
	case wire.OpBatchSubscribe:
		b, err := wire.UnmarshalBatchSubscribeRequest(env.Body)
		if err != nil {
			return
		}
		reply := c.svc.BatchSubscribe(o, b)
		c.deliverReply(o, wire.OpBatchReply, reply.Nonce, reply.Marshal())
	case wire.OpSessionResume:
		r, err := wire.UnmarshalSessionResumeRequest(env.Body)
		if err != nil {
			return
		}
		reply := c.svc.ResumeSession(o, r)
		c.deliverReply(o, wire.OpSessionResumeReply, reply.Nonce, reply.Marshal())
	}
}

// deliverReply injects one service reply at the requester's access point.
// A reply past the frame budget (e.g. a 10⁴-item batch reply) goes out as
// OpChunk continuation frames under the same correlation id; the client
// reassembles before decoding.
func (c *Controller) deliverReply(o Origin, op wire.Op, corr uint64, body []byte) {
	frames, err := wire.ChunkEnvelope(&wire.Envelope{
		Version:       wire.EnvelopeVersion,
		Op:            op,
		CorrelationID: corr,
		SessionID:     o.SessionID,
		Body:          body,
	}, 0)
	if err != nil {
		return
	}
	for _, fr := range frames {
		_ = c.sendPacketOut(o.Switch, o.Port, wire.NewEnvelopeReplyPacket(o.MAC, o.IP, fr))
	}
}

// clientKeyOf returns the registered verification key for a client.
func (c *Controller) clientKeyOf(id uint64) (ed25519.PublicKey, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pub, ok := c.clients[id]
	return pub, ok
}
