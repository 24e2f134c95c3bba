package rvaas

import (
	"repro/internal/topology"
	"repro/internal/wire"
)

// Federation is the inter-provider query interface (paper §IV-C: "queries
// need to be propagated between the RVaaS servers of the respective
// providers"). Each provider's RVaaS implements it for its peers; the trust
// assumptions extend to the peer servers, which is why responses from peers
// are merged verbatim rather than re-verified.
type Federation interface {
	// FederatedRegions returns the regions traffic entering this provider
	// at the given endpoint (with the given header constraints) can
	// traverse, recursing further if needed.
	FederatedRegions(entry topology.Endpoint, constraints []wire.FieldConstraint) []string
	// FederatedReachable returns the endpoints (described as
	// provider-qualified strings) such traffic can reach.
	FederatedReachable(entry topology.Endpoint, constraints []wire.FieldConstraint) []string
}

// AddPeer declares that traffic leaving localEgress enters the peer
// provider at peerEntry.
func (c *Controller) AddPeer(localEgress topology.Endpoint, peer Federation, peerEntry topology.Endpoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peers[peeringKey(localEgress)] = peer
	c.peerEntries[peeringKey(localEgress)] = peerEntry
}

func peeringKey(ep topology.Endpoint) string {
	return ep.String()
}

// peerAt returns the peer provider reachable through a local egress
// endpoint, with the entry point on the peer side.
func (c *Controller) peerAt(ep topology.Endpoint) (Federation, topology.Endpoint, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	peer, ok := c.peers[peeringKey(ep)]
	if !ok {
		return nil, topology.Endpoint{}, false
	}
	return peer, c.peerEntries[peeringKey(ep)], true
}

// FederatedRegions implements Federation for this controller: it runs the
// geo analysis from the entry endpoint and recurses into further peers.
func (c *Controller) FederatedRegions(entry topology.Endpoint, constraints []wire.FieldConstraint) []string {
	net := c.CompiledNetwork()
	req := requesterInfo{sw: entry.Switch, port: entry.Port}
	resp := &wire.QueryResponse{Version: wire.CurrentVersion, Kind: wire.QueryGeoRegions}
	c.answerGeo(net, req, &wire.QueryRequest{Version: wire.CurrentVersion, Kind: wire.QueryGeoRegions, Constraints: constraints}, resp)
	return resp.Regions
}

// FederatedReachable implements Federation: endpoints reachable from the
// entry point, qualified as "switch:port" strings (topology details beyond
// endpoints stay confidential).
func (c *Controller) FederatedReachable(entry topology.Endpoint, constraints []wire.FieldConstraint) []string {
	net := c.CompiledNetwork()
	req := requesterInfo{sw: entry.Switch, port: entry.Port}
	eps := c.reachableEndpoints(net, req, &wire.QueryRequest{
		Version: wire.CurrentVersion, Kind: wire.QueryReachableDestinations, Constraints: constraints,
	})
	var out []string
	for _, de := range eps {
		out = append(out, de.ep.String())
		if peer, peerEntry, ok := c.peerAt(de.ep); ok {
			out = append(out, peer.FederatedReachable(peerEntry, constraints)...)
		}
	}
	return out
}

// Compile-time check: a Controller can serve as a federation peer.
var _ Federation = (*Controller)(nil)
