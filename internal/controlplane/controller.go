// Package controlplane implements the provider's SDN controller — the
// component the paper's threat model assumes can be compromised ("an
// external attacker which compromised the network management or control
// plane ... aims to change the data plane configuration, e.g., to divert
// client traffic to unsupervised access points or through undesired
// jurisdiction", §III). It computes legitimate shortest-path routing and
// exposes attack injectors that reproduce every misbehaviour class the
// paper discusses.
package controlplane

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Cookie ranges so experiments can tell legitimate rules from attack rules
// (RVaaS itself never sees this distinction — it must detect attacks from
// behaviour, not labels).
const (
	// CookieRouting marks legitimate provider routing rules.
	CookieRouting uint64 = 0x1000_0000
	// CookieAttack marks rules installed by a compromise (ground truth for
	// experiments only).
	CookieAttack uint64 = 0xBAD0_0000
)

// Programmer abstracts "apply this flow modification on that switch" so the
// provider control plane can program datapaths it does not host. The
// in-process fabric is the default implementation; a placed lab substitutes
// a programmer that routes the mod over the process trunk to the switchd
// child hosting the switch.
type Programmer interface {
	Program(sw topology.SwitchID, mod *openflow.FlowMod) error
}

// Controller is the provider's network controller.
type Controller struct {
	// fab is the in-process fabric (nil when programming runs through a
	// remote Programmer only; the attack simulators need a local fabric).
	fab  *fabric.Fabric
	topo *topology.Topology
	prog Programmer
	// priority of legitimate routing rules.
	routePriority uint16
}

// New binds a controller to a fabric.
func New(fab *fabric.Fabric) *Controller {
	return &Controller{fab: fab, topo: fab.Topology(), prog: fabricProgrammer{fab}, routePriority: 100}
}

// NewWithProgrammer binds a controller to an arbitrary programming plane —
// for deployments whose switches live (partly) in other processes. The
// attack/compromise simulators require an in-process fabric and must not be
// used on a controller built this way.
func NewWithProgrammer(topo *topology.Topology, prog Programmer) *Controller {
	return &Controller{topo: topo, prog: prog, routePriority: 100}
}

// fabricProgrammer applies flow mods to in-process datapaths.
type fabricProgrammer struct{ fab *fabric.Fabric }

func (p fabricProgrammer) Program(sw topology.SwitchID, mod *openflow.FlowMod) error {
	dp := p.fab.Switch(sw)
	if dp == nil {
		return fmt.Errorf("controlplane: no datapath for switch %d", sw)
	}
	return dp.ApplyFlowMod(mod)
}

// install / remove route one rule change through the programming plane.
func (c *Controller) install(sw topology.SwitchID, e openflow.FlowEntry) error {
	return c.prog.Program(sw, &openflow.FlowMod{Command: openflow.FlowAdd, Entry: e})
}

func (c *Controller) remove(sw topology.SwitchID, e openflow.FlowEntry) error {
	return c.prog.Program(sw, &openflow.FlowMod{Command: openflow.FlowDeleteStrict, Entry: e})
}

// InstallAllPairs installs destination-based shortest-path routing between
// every pair of access points.
func (c *Controller) InstallAllPairs() error {
	aps := c.topo.AccessPoints()
	for _, dst := range aps {
		if err := c.InstallDestinationTree(dst); err != nil {
			return err
		}
	}
	return nil
}

// InstallDestinationTree installs, on every switch, forwarding toward the
// given destination access point (a destination-rooted shortest-path tree,
// matching on exact IPDst).
func (c *Controller) InstallDestinationTree(dst topology.AccessPoint) error {
	for _, sw := range c.topo.Switches() {
		var out topology.PortNo
		if sw == dst.Endpoint.Switch {
			out = dst.Endpoint.Port
		} else {
			path := c.topo.ShortestPath(sw, dst.Endpoint.Switch)
			if path == nil {
				return fmt.Errorf("controlplane: switch %d cannot reach %s", sw, dst.Endpoint)
			}
			out = c.topo.PortTowards(sw, path[1])
			if out == 0 {
				return fmt.Errorf("controlplane: no port from %d toward %d", sw, path[1])
			}
		}
		if err := c.install(sw, routingEntry(c.routePriority, dst.HostIP, uint32(out))); err != nil {
			return err
		}
	}
	return nil
}

// routingEntry builds the canonical destination-based forwarding rule.
func routingEntry(prio uint16, dstIP uint32, outPort uint32) openflow.FlowEntry {
	return openflow.FlowEntry{
		Priority: prio,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(dstIP), Mask: 0xFFFFFFFF},
		}},
		Actions: []openflow.Action{openflow.Output(outPort)},
		Cookie:  CookieRouting | uint64(dstIP&0xFFFFFF),
	}
}

// InstallTenantRouting installs isolated per-tenant routing: for every pair
// of access points belonging to the same client, a source-and-destination
// matched path with ingress-port pinning at every hop. Ports not on a
// tenant path cannot inject traffic into the tenant's flows — the isolation
// property the paper's first case study verifies (§IV-B1).
func (c *Controller) InstallTenantRouting() error {
	aps := c.topo.AccessPoints()
	for _, src := range aps {
		for _, dst := range aps {
			if src.ClientID != dst.ClientID || src.Endpoint == dst.Endpoint {
				continue
			}
			if err := c.installPinnedPath(src, dst); err != nil {
				return err
			}
		}
	}
	return nil
}

// installPinnedPath installs the (src -> dst) flow along the shortest path,
// matching IPSrc, IPDst and the expected ingress port on every switch.
func (c *Controller) installPinnedPath(src, dst topology.AccessPoint) error {
	path := c.topo.ShortestPath(src.Endpoint.Switch, dst.Endpoint.Switch)
	if path == nil {
		return fmt.Errorf("controlplane: no path %s -> %s", src.Endpoint, dst.Endpoint)
	}
	inPort := src.Endpoint.Port
	for i, sw := range path {
		var out topology.PortNo
		if i == len(path)-1 {
			out = dst.Endpoint.Port
		} else {
			out = c.topo.PortTowards(sw, path[i+1])
			if out == 0 {
				return fmt.Errorf("controlplane: no port from %d toward %d", sw, path[i+1])
			}
		}
		e := openflow.FlowEntry{
			Priority: c.routePriority + 100,
			Match: openflow.Match{
				InPort: uint32(inPort),
				Fields: []openflow.FieldMatch{
					{Field: wire.FieldIPSrc, Value: uint64(src.HostIP), Mask: 0xFFFFFFFF},
					{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF},
				},
			},
			Actions: []openflow.Action{openflow.Output(uint32(out))},
			Cookie:  CookieRouting | uint64(src.HostIP&0xFFF)<<12 | uint64(dst.HostIP&0xFFF),
		}
		if err := c.install(sw, e); err != nil {
			return err
		}
		if i < len(path)-1 {
			// The far end of this hop is the next switch's ingress port.
			peer, ok := c.topo.Peer(topology.Endpoint{Switch: sw, Port: out})
			if !ok {
				return fmt.Errorf("controlplane: port %d/%d unexpectedly unwired", sw, out)
			}
			inPort = peer.Port
		}
	}
	return nil
}

// UninstallDestination removes the destination tree for an IP.
func (c *Controller) UninstallDestination(dstIP uint32) {
	for _, sw := range c.topo.Switches() {
		_ = c.remove(sw, routingEntry(c.routePriority, dstIP, 0))
	}
}

// InstallEntry places an arbitrary rule on a switch through the provider's
// (untrusted) control session. Attacks use this.
func (c *Controller) InstallEntry(sw topology.SwitchID, e openflow.FlowEntry) {
	_ = c.install(sw, e)
}

// RemoveEntry removes a rule (strict match) through the provider session.
func (c *Controller) RemoveEntry(sw topology.SwitchID, e openflow.FlowEntry) {
	_ = c.remove(sw, e)
}
