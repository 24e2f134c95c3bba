package rvaas

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/headerspace"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// handlePacketIn is the controller's transport layer: the interception
// rule reports client envelopes, which go to the service stack.
func (c *Controller) handlePacketIn(sw topology.SwitchID, m *openflow.PacketIn) {
	c.mu.Lock()
	c.stats.PacketIns++
	c.mu.Unlock()
	pkt, err := wire.Unmarshal(m.Data)
	if err != nil {
		return
	}
	if pkt.IsRVaaSV2() {
		c.serveEnvelope(sw, topology.PortNo(m.InPort), pkt)
	}
}

// scopeSpace builds the header space a query constrains itself to.
func scopeSpace(constraints []wire.FieldConstraint) headerspace.Space {
	h := headerspace.AllX(wire.HeaderWidth)
	for _, fc := range constraints {
		fh := wire.FieldHeader(fc.Field, fc.Value, fc.Mask)
		x, err := h.Intersect(fh)
		if err != nil {
			continue
		}
		h = x
	}
	return headerspace.NewSpace(wire.HeaderWidth, h)
}

// discoveredEndpoint is one edge port found by logical verification.
type discoveredEndpoint struct {
	ep       topology.Endpoint
	ap       topology.AccessPoint
	known    bool
	pathLens []int
}

// answerQuery performs the logical part of the paper's pipeline for one
// query — static trajectory analysis and endpoint discovery — writing the
// verdict into resp and returning the discovered endpoints eligible for
// the active in-band authentication round. Single queries with targets go
// on to startAuthRound; batch queries run the logical pipeline only.
func (c *Controller) answerQuery(net *headerspace.Network, requester requesterInfo, q *wire.QueryRequest, resp *wire.QueryResponse) []discoveredEndpoint {
	var authTargets []discoveredEndpoint
	switch q.Kind {
	case wire.QueryReachableDestinations:
		eps := c.reachableEndpoints(net, requester, q)
		authTargets = c.fillEndpoints(resp, eps, q)
	case wire.QueryReachingSources, wire.QueryIsolation:
		eps := c.reachingSources(net, requester, q.Constraints)
		authTargets = c.fillEndpoints(resp, eps, q)
		if q.Kind == wire.QueryIsolation {
			c.judgeIsolation(resp, eps, q.ClientID)
		}
	case wire.QueryGeoRegions:
		c.answerGeo(net, requester, q, resp)
	case wire.QueryPathLength:
		c.answerPathLength(net, requester, q, resp)
	case wire.QueryWaypointAvoidance:
		c.answerWaypoint(net, requester, q, resp)
	case wire.QueryNeutrality:
		c.answerNeutrality(net, requester, q, resp)
	case wire.QueryTransferFunction:
		c.answerTransferFunction(net, requester, q, resp)
	default:
		resp.Status = wire.StatusUnsupported
		resp.Detail = fmt.Sprintf("unknown query kind %d", q.Kind)
	}
	return authTargets
}

type requesterInfo struct {
	sw   topology.SwitchID
	port topology.PortNo
	mac  uint64
	ip   uint32
}

// reachableEndpoints answers "which destinations can be reached by the
// traffic leaving my network card?" (§IV-A).
func (c *Controller) reachableEndpoints(net *headerspace.Network, req requesterInfo, q *wire.QueryRequest) []discoveredEndpoint {
	space := scopeSpace(q.Constraints)
	results := net.Reach(headerspace.NodeID(req.sw), headerspace.PortID(req.port), space, headerspace.ReachOptions{})
	return c.collectEndpoints(results, req)
}

// reachingSources answers "for which sources currently exist routing paths
// which can reach my network card?". It injects the scope at every edge
// port of the network — including unregistered ones, which is exactly how a
// join attack's secret access point is discovered. The per-port traversals
// are independent, so they fan out across a worker pool (ReachAll); the
// compiled network is shared read-only between the workers. (Standing
// isolation invariants use the cone-cached variant in isolation.go
// instead, which additionally records per-point footprints.)
func (c *Controller) reachingSources(net *headerspace.Network, req requesterInfo, constraints []wire.FieldConstraint) []discoveredEndpoint {
	space := scopeSpace(constraints)
	var points []headerspace.InjectionPoint
	var eps []topology.Endpoint
	for _, ep := range c.topo.EdgePorts() {
		if ep.Switch == req.sw && ep.Port == req.port {
			continue // the request point trivially reaches itself
		}
		points = append(points, headerspace.InjectionPoint{
			Node: headerspace.NodeID(ep.Switch), Port: headerspace.PortID(ep.Port),
		})
		eps = append(eps, ep)
	}
	var found []discoveredEndpoint
	for i, pr := range net.ReachAll(points, space, headerspace.ReachOptions{}) {
		reaches := false
		var lens []int
		for _, r := range pr.Results {
			if r.Looped {
				continue
			}
			if r.EgressNode == headerspace.NodeID(req.sw) && r.EgressPort == headerspace.PortID(req.port) {
				reaches = true
				lens = append(lens, len(r.Path))
			}
		}
		if !reaches {
			continue
		}
		de := discoveredEndpoint{ep: eps[i], pathLens: lens}
		if ap, ok := c.topo.AccessPointAt(eps[i]); ok {
			de.ap = ap
			de.known = true
		}
		found = append(found, de)
	}
	sortEndpoints(found)
	return found
}

// collectEndpoints maps reach results to discovered endpoints.
func (c *Controller) collectEndpoints(results []headerspace.ReachResult, req requesterInfo) []discoveredEndpoint {
	byEp := make(map[topology.Endpoint]*discoveredEndpoint)
	for _, r := range results {
		if r.Looped {
			continue
		}
		ep := topology.Endpoint{Switch: topology.SwitchID(r.EgressNode), Port: topology.PortNo(r.EgressPort)}
		if ep.Switch == req.sw && ep.Port == req.port {
			continue
		}
		de := byEp[ep]
		if de == nil {
			de = &discoveredEndpoint{ep: ep}
			if ap, ok := c.topo.AccessPointAt(ep); ok {
				de.ap = ap
				de.known = true
			}
			byEp[ep] = de
		}
		de.pathLens = append(de.pathLens, len(r.Path))
	}
	out := make([]discoveredEndpoint, 0, len(byEp))
	for _, de := range byEp {
		out = append(out, *de)
	}
	sortEndpoints(out)
	return out
}

func sortEndpoints(eps []discoveredEndpoint) {
	sort.Slice(eps, func(i, j int) bool {
		if eps[i].ep.Switch != eps[j].ep.Switch {
			return eps[i].ep.Switch < eps[j].ep.Switch
		}
		return eps[i].ep.Port < eps[j].ep.Port
	})
}

// fillEndpoints writes discovered endpoints into the response and returns
// the subset to authenticate in-band (registered clients only — an
// unregistered port cannot authenticate, which is itself a signal).
func (c *Controller) fillEndpoints(resp *wire.QueryResponse, eps []discoveredEndpoint, q *wire.QueryRequest) []discoveredEndpoint {
	var targets []discoveredEndpoint
	for _, de := range eps {
		e := wire.Endpoint{
			SwitchID: uint32(de.ep.Switch),
			Port:     uint32(de.ep.Port),
		}
		if de.known {
			e.ClientID = de.ap.ClientID
			e.Detail = string(c.topo.RegionOf(de.ep.Switch))
			c.mu.Lock()
			_, registered := c.clients[de.ap.ClientID]
			c.mu.Unlock()
			if registered {
				targets = append(targets, de)
			}
		} else {
			e.Detail = "unregistered-port"
		}
		resp.Endpoints = append(resp.Endpoints, e)
	}
	return targets
}

// isolationVerdict decides whether the endpoints able to communicate with
// the request point break isolation: any endpoint that does not belong to
// the querying client does ("no client can gain access to another client's
// network except through some access points used by the client", §IV-B1).
// Shared between one-shot isolation queries and standing invariants.
func isolationVerdict(eps []discoveredEndpoint, clientID uint64) (bool, string) {
	var intruders []string
	for _, de := range eps {
		if de.known && de.ap.ClientID == clientID {
			continue
		}
		intruders = append(intruders, de.ep.String())
	}
	if len(intruders) > 0 {
		return true, fmt.Sprintf("isolation broken by %d endpoint(s): %v", len(intruders), intruders)
	}
	return false, fmt.Sprintf("isolation holds across %d reaching endpoint(s)", len(eps))
}

// judgeIsolation applies the isolation verdict to a one-shot response.
func (c *Controller) judgeIsolation(resp *wire.QueryResponse, eps []discoveredEndpoint, clientID uint64) {
	if violated, detail := isolationVerdict(eps, clientID); violated {
		resp.Status = wire.StatusViolation
		resp.Detail = detail
	}
}

// answerGeo computes the set of regions the client's traffic can traverse
// (§IV-B2), recursing into federated peers where the traffic leaves this
// provider.
func (c *Controller) answerGeo(net *headerspace.Network, req requesterInfo, q *wire.QueryRequest, resp *wire.QueryResponse) {
	space := scopeSpace(q.Constraints)
	results := net.Reach(headerspace.NodeID(req.sw), headerspace.PortID(req.port), space, headerspace.ReachOptions{})
	regionSet := make(map[string]struct{})
	for _, n := range headerspace.TraversedNodes(results) {
		if r := c.topo.RegionOf(topology.SwitchID(n)); r != "" {
			regionSet[string(r)] = struct{}{}
		}
	}
	// Federation: results egressing at a peering port continue in the
	// neighbour provider (§IV-C).
	for _, r := range results {
		if r.Looped {
			continue
		}
		ep := topology.Endpoint{Switch: topology.SwitchID(r.EgressNode), Port: topology.PortNo(r.EgressPort)}
		if peer, entry, ok := c.peerAt(ep); ok {
			for _, reg := range peer.FederatedRegions(entry, q.Constraints) {
				regionSet[reg] = struct{}{}
			}
		}
	}
	resp.Regions = sortedKeys(regionSet)
	// Param, when set, is a forbidden region: flag it.
	if q.Param != "" {
		if _, hit := regionSet[q.Param]; hit {
			resp.Status = wire.StatusViolation
			resp.Detail = fmt.Sprintf("traffic can traverse forbidden region %q", q.Param)
		}
	}
}

func sortedKeys(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// pathLengthVerdict checks route optimality over reach results computed
// with KeepLoops: the longest possible path for the scoped traffic versus
// the client-supplied bound. Shared between one-shot queries and standing
// invariants.
func pathLengthVerdict(results []headerspace.ReachResult, bound int) (bool, string) {
	maxLen := 0
	looped := false
	for _, r := range results {
		if r.Looped {
			looped = true
			continue
		}
		if len(r.Path) > maxLen {
			maxLen = len(r.Path)
		}
	}
	if looped {
		return true, "forwarding loop detected"
	}
	if maxLen > bound {
		return true, fmt.Sprintf("max path length %d exceeds bound %d", maxLen, bound)
	}
	return false, strconv.Itoa(maxLen)
}

// answerPathLength applies the path-length verdict to a one-shot response.
func (c *Controller) answerPathLength(net *headerspace.Network, req requesterInfo, q *wire.QueryRequest, resp *wire.QueryResponse) {
	bound, err := strconv.Atoi(q.Param)
	if err != nil {
		resp.Status = wire.StatusError
		resp.Detail = "path-length query needs integer Param"
		return
	}
	space := scopeSpace(q.Constraints)
	results := net.Reach(headerspace.NodeID(req.sw), headerspace.PortID(req.port), space, headerspace.ReachOptions{KeepLoops: true})
	violated, detail := pathLengthVerdict(results, bound)
	resp.Detail = detail
	if violated {
		resp.Status = wire.StatusViolation
	}
}

// waypointVerdict verifies avoidance over reach results: the scoped
// traffic must not be able to traverse any switch in the forbidden region
// (the "verify that certain paths have not been taken" goal, §I). Shared
// between one-shot queries and standing invariants.
func (c *Controller) waypointVerdict(results []headerspace.ReachResult, region string) (bool, string) {
	for _, n := range headerspace.TraversedNodes(results) {
		if string(c.topo.RegionOf(topology.SwitchID(n))) == region {
			return true, fmt.Sprintf("switch %d in avoided region %q is traversable", n, region)
		}
	}
	return false, fmt.Sprintf("region %q not traversable", region)
}

// answerWaypoint applies the waypoint verdict to a one-shot response.
func (c *Controller) answerWaypoint(net *headerspace.Network, req requesterInfo, q *wire.QueryRequest, resp *wire.QueryResponse) {
	space := scopeSpace(q.Constraints)
	results := net.Reach(headerspace.NodeID(req.sw), headerspace.PortID(req.port), space, headerspace.ReachOptions{})
	violated, detail := c.waypointVerdict(results, q.Param)
	resp.Detail = detail
	if violated {
		resp.Status = wire.StatusViolation
	}
}

// answerNeutrality compares the scoped traffic class against the same
// traffic without its transport-layer constraints: if the general traffic
// reaches endpoints the class cannot, the class is being discriminated
// (paper: "is my traffic forwarded fairly, e.g., according to network
// neutrality principles?").
func (c *Controller) answerNeutrality(net *headerspace.Network, req requesterInfo, q *wire.QueryRequest, resp *wire.QueryResponse) {
	classSpace := scopeSpace(q.Constraints)
	var baselineConstraints []wire.FieldConstraint
	for _, fc := range q.Constraints {
		if fc.Field == wire.FieldL4Dst || fc.Field == wire.FieldL4Src || fc.Field == wire.FieldIPProto {
			continue
		}
		baselineConstraints = append(baselineConstraints, fc)
	}
	baseSpace := scopeSpace(baselineConstraints)

	classSet := egressEndpoints(net, req, classSpace)
	baseSet := egressEndpoints(net, req, baseSpace)
	var missing []string
	for ep := range baseSet {
		if _, ok := classSet[ep]; !ok {
			missing = append(missing, ep.String())
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		resp.Status = wire.StatusViolation
		resp.Detail = fmt.Sprintf("class cannot reach %d endpoint(s) the general traffic can: %v", len(missing), missing)
		return
	}
	// Reachability may be equal while the class is still rate-starved: a
	// class-specific rule with a meter attached is discrimination the paper
	// explicitly covers ("whether allocated routes and meter tables meet
	// network neutrality requirements", §IV-C).
	if sw, rate, metered := c.findClassMeter(classSpace, baseSpace); metered {
		resp.Status = wire.StatusViolation
		resp.Detail = fmt.Sprintf("class-specific meter on switch %d limits the class to %d kbit/s", sw, rate)
		return
	}
	resp.Detail = fmt.Sprintf("class reaches all %d endpoints of the general traffic", len(baseSet))
}

// findClassMeter scans the snapshot for rules that (a) carry a meter, (b)
// match part of the class, and (c) are class-specific (they do not apply to
// the general traffic as a whole).
func (c *Controller) findClassMeter(classSpace, baseSpace headerspace.Space) (topology.SwitchID, uint32, bool) {
	for _, sw := range c.topo.Switches() {
		meters := make(map[uint32]uint32) // id -> rate
		for _, mc := range c.snap.metersOf(sw) {
			meters[mc.MeterID] = mc.RateKbps
		}
		for _, e := range c.snap.table(sw) {
			if e.MeterID == 0 {
				continue
			}
			ruleHdr := e.Match.ToHeader()
			if !classSpace.IntersectHeader(ruleHdr).IsEmpty() &&
				!headerspace.NewSpace(ruleHdr.Width(), ruleHdr).Covers(baseSpace) {
				return sw, meters[e.MeterID], true
			}
		}
	}
	return 0, 0, false
}

func egressEndpoints(net *headerspace.Network, req requesterInfo, space headerspace.Space) map[topology.Endpoint]struct{} {
	out := make(map[topology.Endpoint]struct{})
	results := net.Reach(headerspace.NodeID(req.sw), headerspace.PortID(req.port), space, headerspace.ReachOptions{})
	for _, r := range results {
		if r.Looped {
			continue
		}
		out[topology.Endpoint{Switch: topology.SwitchID(r.EgressNode), Port: topology.PortNo(r.EgressPort)}] = struct{}{}
	}
	return out
}

// answerTransferFunction returns a compact summary of the routing service
// applied to the client's traffic ("a client may also request a compact
// representation of the transfer function of its offered routing service")
// without revealing internal topology: only egress endpoints and the number
// of distinct header-space classes per egress.
func (c *Controller) answerTransferFunction(net *headerspace.Network, req requesterInfo, q *wire.QueryRequest, resp *wire.QueryResponse) {
	space := scopeSpace(q.Constraints)
	results := net.Reach(headerspace.NodeID(req.sw), headerspace.PortID(req.port), space, headerspace.ReachOptions{})
	classes := 0
	egress := headerspace.EgressSet(results)
	var nodes []headerspace.NodeID
	for n := range egress {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		for p, s := range egress[n] {
			classes += s.Size()
			resp.Endpoints = append(resp.Endpoints, wire.Endpoint{
				SwitchID: uint32(n),
				Port:     uint32(p),
				Detail:   fmt.Sprintf("%d class(es)", s.Size()),
			})
		}
	}
	resp.Detail = fmt.Sprintf("%d egress endpoint(s), %d header class(es)", len(resp.Endpoints), classes)
}
