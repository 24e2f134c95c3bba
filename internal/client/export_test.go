package client

import "repro/internal/wire"

// NonceRoutes counts the subscriptions routed by registration nonce: every
// live one, plus any whose registration is in flight.
func (a *Agent) NonceRoutes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.subsByNonce)
}

// HandleFrame is the agent's NIC receive path at its primary access point;
// attach it to the fabric as the host handler.
func (a *Agent) HandleFrame(pkt *wire.Packet) {
	a.handleEnvelope(a.cfg.Access, pkt)
}

// VerifyNotification checks a subscription notification's signature and
// attestation quote against the agent's trust anchors.
func (a *Agent) VerifyNotification(n *wire.Notification) error {
	return a.verifyFromServer(n.SigningBytes(), n.Signature, n.Quote)
}

// AuthRequestsSeen counts authentication requests this agent answered.
func (a *Agent) AuthRequestsSeen() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.authSeen
}

// SessionResumesSent counts ResumeSession exchanges this agent issued
// (including those triggered by automatic gap recovery).
func (a *Agent) SessionResumesSent() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.resumes
}

// ChainsDropped counts chunked server messages discarded before their chain
// completed (evicted, torn or carrying a duplicated fragment). Pushes are
// fire-and-forget, so on a lossy channel this is a normal event; the loss
// itself surfaces as a Seq gap on the stream's next push.
func (a *Agent) ChainsDropped() uint64 { return a.reasm.Dropped() }
