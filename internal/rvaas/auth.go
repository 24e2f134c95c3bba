package rvaas

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"time"

	"repro/internal/enclave"
	"repro/internal/topology"
	"repro/internal/wire"
)

// pendingQuery tracks one in-flight authentication round: the paper's
// active phase where "these packets trigger destination clients to respond
// to the querying clients, in an authenticated manner" (§IV-A3).
type pendingQuery struct {
	nonce uint64
	resp  *wire.QueryResponse
	// deliver hands the finalized signed response back to the transport
	// (or the in-process caller) that issued the query.
	deliver func(*wire.QueryResponse)

	mu       sync.Mutex
	expected map[uint64]*authTarget // challenge -> target
	received int
	timer    *time.Timer
	finished bool
}

type authTarget struct {
	endpointIdx int // index into resp.Endpoints
	clientID    uint64
	ok          bool
}

func (p *pendingQuery) cancel() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.finished = true
	if p.timer != nil {
		p.timer.Stop()
	}
}

// startAuthRound dispatches authentication requests to every discovered,
// registered endpoint and arranges for the response to be finalized when
// all replies arrive or the deadline passes. The response reports both how
// many requests were made and how many replies came back, "such that it can
// detect cases where some access points did not respond".
func (c *Controller) startAuthRound(req requesterInfo, q *wire.QueryRequest, resp *wire.QueryResponse, targets []discoveredEndpoint, deliver func(*wire.QueryResponse)) {
	p := &pendingQuery{
		nonce:    q.Nonce,
		resp:     resp,
		deliver:  deliver,
		expected: make(map[uint64]*authTarget, len(targets)),
	}
	// Derive per-target challenges deterministically from the enclave
	// signature of (nonce, endpoint) so they are unforgeable by observers.
	for _, de := range targets {
		challenge := c.challengeFor(q.Nonce, de.ep)
		idx := endpointIndex(resp, de.ep)
		if idx < 0 {
			continue
		}
		p.expected[challenge] = &authTarget{endpointIdx: idx, clientID: de.ap.ClientID}
	}
	resp.AuthRequested = uint32(len(p.expected))
	c.mu.Lock()
	c.stats.AuthRequested += uint64(len(p.expected))
	c.pending[q.Nonce] = p
	c.mu.Unlock()

	timeout := c.cfg.AuthTimeout
	if q.DeadlineMillis > 0 {
		if d := time.Duration(q.DeadlineMillis) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	p.timer = time.AfterFunc(timeout, func() { c.finishAuthRound(p) })

	// Inject one auth request per target at its egress port.
	for challenge, tgt := range p.expected {
		ep := topology.Endpoint{
			Switch: topology.SwitchID(resp.Endpoints[tgt.endpointIdx].SwitchID),
			Port:   topology.PortNo(resp.Endpoints[tgt.endpointIdx].Port),
		}
		ap, ok := c.topo.AccessPointAt(ep)
		if !ok {
			continue
		}
		ar := &wire.AuthRequest{
			QueryNonce: q.Nonce,
			Challenge:  challenge,
			ServerKey:  c.enclave.PublicKey(),
		}
		_ = c.sendPacketOut(ep.Switch, ep.Port, wire.NewEnvelopeReplyPacket(ap.HostMAC, ap.HostIP, &wire.Envelope{
			Version:       wire.EnvelopeVersion,
			Op:            wire.OpAuthChallenge,
			CorrelationID: challenge,
			Body:          ar.Marshal(),
		}))
	}
}

// challengeFor derives an unforgeable 64-bit challenge for (nonce, ep).
func (c *Controller) challengeFor(nonce uint64, ep topology.Endpoint) uint64 {
	var buf [20]byte
	binary.BigEndian.PutUint64(buf[0:], nonce)
	binary.BigEndian.PutUint32(buf[8:], uint32(ep.Switch))
	binary.BigEndian.PutUint32(buf[12:], uint32(ep.Port))
	sig := c.enclave.Sign(buf[:])
	sum := sha256.Sum256(sig)
	return binary.BigEndian.Uint64(sum[:8])
}

func endpointIndex(resp *wire.QueryResponse, ep topology.Endpoint) int {
	for i, e := range resp.Endpoints {
		if e.SwitchID == uint32(ep.Switch) && e.Port == uint32(ep.Port) {
			return i
		}
	}
	return -1
}

// handleAuthReply verifies one intercepted authentication reply against the
// client registry and the expected challenge.
func (c *Controller) handleAuthReply(rep *wire.AuthReply) {
	c.mu.Lock()
	p := c.pending[rep.QueryNonce]
	pub, registered := c.clients[rep.ClientID]
	c.mu.Unlock()
	if p == nil || !registered {
		return
	}
	p.mu.Lock()
	tgt, expected := p.expected[rep.Challenge]
	if !expected || tgt.ok || p.finished {
		p.mu.Unlock()
		return
	}
	// The reply must come from the client the endpoint belongs to and be
	// signed by that client's registered key.
	if tgt.clientID != rep.ClientID || !enclave.VerifyFrom(pub, rep.SigningBytes(), rep.Signature) {
		p.mu.Unlock()
		return
	}
	tgt.ok = true
	p.received++
	p.resp.Endpoints[tgt.endpointIdx].Authenticated = true
	all := p.received == len(p.expected)
	p.mu.Unlock()

	c.mu.Lock()
	c.stats.AuthReceived++
	c.mu.Unlock()

	if all {
		if p.timer != nil {
			p.timer.Stop()
		}
		c.finishAuthRound(p)
	}
}

// finishAuthRound finalizes and sends the response exactly once.
func (c *Controller) finishAuthRound(p *pendingQuery) {
	p.mu.Lock()
	if p.finished {
		p.mu.Unlock()
		return
	}
	p.finished = true
	p.resp.AuthReplied = uint32(p.received)
	p.mu.Unlock()

	c.mu.Lock()
	delete(c.pending, p.nonce)
	c.mu.Unlock()
	c.finalizeQuery(p.resp, p.deliver)
}

// finalizeQuery signs the response inside the enclave, attaches the
// attestation quote and hands it to the transport's deliver callback
// (which, for in-band requesters, injects it via Packet-Out at the
// client's ingress port).
func (c *Controller) finalizeQuery(resp *wire.QueryResponse, deliver func(*wire.QueryResponse)) {
	resp.Signature, resp.Quote = c.enclave.SignAttested(resp.SigningBytes())
	c.mu.Lock()
	c.stats.ResponsesSigned++
	c.mu.Unlock()
	if deliver != nil {
		deliver(resp)
	}
}
