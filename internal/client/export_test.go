package client

// NonceRoutes counts the subscriptions routed by registration nonce: every
// live one, plus any whose registration is in flight.
func (a *Agent) NonceRoutes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.subsByNonce)
}
