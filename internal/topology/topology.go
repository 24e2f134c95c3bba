// Package topology models the physical infrastructure the paper trusts: the
// switches, the links, the wiring plan, the client access points, and the
// geographic placement of equipment (used by the geo-location case study,
// paper §IV-B2).
package topology

import (
	"fmt"
	"sort"
)

// SwitchID identifies a switch (datapath).
type SwitchID uint32

// PortNo is a physical switch port number (1-based; 0 is invalid).
type PortNo uint32

// Endpoint is one end of a link or an access point: a (switch, port) pair.
type Endpoint struct {
	Switch SwitchID
	Port   PortNo
}

// String renders "s<ID>:p<Port>".
func (e Endpoint) String() string { return fmt.Sprintf("s%d:p%d", e.Switch, e.Port) }

// Link is a bidirectional cable between two switch ports.
type Link struct {
	A, B Endpoint
}

// AccessPoint is an edge port where a client host attaches.
type AccessPoint struct {
	Endpoint Endpoint
	// ClientID identifies the attached client (0 = unassigned).
	ClientID uint64
	// HostMAC / HostIP identify the attached NIC.
	HostMAC uint64
	HostIP  uint32
}

// Region is a geographic region / jurisdiction name.
type Region string

// Topology is the wiring plan: switches with port counts, links, access
// points, and per-switch geographic placement.
type Topology struct {
	switches     map[SwitchID]PortNo // max port number per switch
	links        []Link
	linkIndex    map[Endpoint]Endpoint
	accessPoints []AccessPoint
	regions      map[SwitchID]Region
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		switches:  make(map[SwitchID]PortNo),
		linkIndex: make(map[Endpoint]Endpoint),
		regions:   make(map[SwitchID]Region),
	}
}

// AddSwitch registers a switch with the given number of ports.
func (t *Topology) AddSwitch(id SwitchID, ports PortNo) {
	t.switches[id] = ports
}

// SetRegion places a switch in a geographic region.
func (t *Topology) SetRegion(id SwitchID, r Region) {
	t.regions[id] = r
}

// RegionOf returns the switch's region ("" if unplaced).
func (t *Topology) RegionOf(id SwitchID) Region { return t.regions[id] }

// Regions returns the distinct regions present, sorted.
func (t *Topology) Regions() []Region {
	set := map[Region]struct{}{}
	for _, r := range t.regions {
		set[r] = struct{}{}
	}
	out := make([]Region, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddLink wires two endpoints with a cable. Both switches must exist and
// both ports must be unused.
func (t *Topology) AddLink(l Link) error {
	for _, e := range []Endpoint{l.A, l.B} {
		max, ok := t.switches[e.Switch]
		if !ok {
			return fmt.Errorf("topology: unknown switch %d", e.Switch)
		}
		if e.Port == 0 || e.Port > max {
			return fmt.Errorf("topology: port %d out of range for switch %d", e.Port, e.Switch)
		}
		if _, used := t.linkIndex[e]; used {
			return fmt.Errorf("topology: port %s already wired", e)
		}
	}
	t.links = append(t.links, l)
	t.linkIndex[l.A] = l.B
	t.linkIndex[l.B] = l.A
	return nil
}

// AddAccessPoint attaches a client host at an unwired edge port.
func (t *Topology) AddAccessPoint(ap AccessPoint) error {
	max, ok := t.switches[ap.Endpoint.Switch]
	if !ok {
		return fmt.Errorf("topology: unknown switch %d", ap.Endpoint.Switch)
	}
	if ap.Endpoint.Port == 0 || ap.Endpoint.Port > max {
		return fmt.Errorf("topology: port %d out of range", ap.Endpoint.Port)
	}
	if _, wired := t.linkIndex[ap.Endpoint]; wired {
		return fmt.Errorf("topology: port %s is an internal link", ap.Endpoint)
	}
	for _, existing := range t.accessPoints {
		if existing.Endpoint == ap.Endpoint {
			return fmt.Errorf("topology: access point %s already present", ap.Endpoint)
		}
	}
	t.accessPoints = append(t.accessPoints, ap)
	return nil
}

// Switches returns switch ids in ascending order.
func (t *Topology) Switches() []SwitchID {
	ids := make([]SwitchID, 0, len(t.switches))
	for id := range t.switches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// PortCount returns the number of ports on a switch.
func (t *Topology) PortCount(id SwitchID) PortNo { return t.switches[id] }

// EdgePorts returns every non-internal (access) port of every switch in
// ascending (switch, port) order — the injection sweep set of source
// discovery queries. This is the single source of truth for edge-port
// enumeration; query handling and the experiments both build on it.
func (t *Topology) EdgePorts() []Endpoint {
	var out []Endpoint
	for _, sw := range t.Switches() {
		for p := PortNo(1); p <= t.PortCount(sw); p++ {
			ep := Endpoint{Switch: sw, Port: p}
			if t.IsInternal(ep) {
				continue
			}
			out = append(out, ep)
		}
	}
	return out
}

// Links returns a copy of the cable list.
func (t *Topology) Links() []Link {
	out := make([]Link, len(t.links))
	copy(out, t.links)
	return out
}

// Peer returns the far end of an internal port, or ok=false for edge ports.
func (t *Topology) Peer(e Endpoint) (Endpoint, bool) {
	p, ok := t.linkIndex[e]
	return p, ok
}

// IsInternal reports whether the port is wired to another switch.
func (t *Topology) IsInternal(e Endpoint) bool {
	_, ok := t.linkIndex[e]
	return ok
}

// AccessPoints returns a copy of the access point list.
func (t *Topology) AccessPoints() []AccessPoint {
	out := make([]AccessPoint, len(t.accessPoints))
	copy(out, t.accessPoints)
	return out
}

// AccessPointAt returns the access point at an endpoint, if any.
func (t *Topology) AccessPointAt(e Endpoint) (AccessPoint, bool) {
	for _, ap := range t.accessPoints {
		if ap.Endpoint == e {
			return ap, true
		}
	}
	return AccessPoint{}, false
}

// AccessPointByIP finds the access point whose host has the given IP.
func (t *Topology) AccessPointByIP(ip uint32) (AccessPoint, bool) {
	for _, ap := range t.accessPoints {
		if ap.HostIP == ip {
			return ap, true
		}
	}
	return AccessPoint{}, false
}

// Neighbors returns the switches adjacent to id with the connecting local
// port, in deterministic order.
func (t *Topology) Neighbors(id SwitchID) []struct {
	Via  PortNo
	Peer SwitchID
} {
	var out []struct {
		Via  PortNo
		Peer SwitchID
	}
	for _, l := range t.links {
		if l.A.Switch == id {
			out = append(out, struct {
				Via  PortNo
				Peer SwitchID
			}{l.A.Port, l.B.Switch})
		}
		if l.B.Switch == id {
			out = append(out, struct {
				Via  PortNo
				Peer SwitchID
			}{l.B.Port, l.A.Switch})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Via < out[j].Via })
	return out
}

// ShortestPath returns the switch path (inclusive) from src to dst using
// BFS, or nil if unreachable.
func (t *Topology) ShortestPath(src, dst SwitchID) []SwitchID {
	if src == dst {
		return []SwitchID{src}
	}
	prev := map[SwitchID]SwitchID{src: src}
	queue := []SwitchID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.Neighbors(cur) {
			if _, seen := prev[nb.Peer]; seen {
				continue
			}
			prev[nb.Peer] = cur
			if nb.Peer == dst {
				return t.unwind(prev, src, dst)
			}
			queue = append(queue, nb.Peer)
		}
	}
	return nil
}

func (t *Topology) unwind(prev map[SwitchID]SwitchID, src, dst SwitchID) []SwitchID {
	var path []SwitchID
	for cur := dst; ; cur = prev[cur] {
		path = append([]SwitchID{cur}, path...)
		if cur == src {
			return path
		}
	}
}

// PortTowards returns the local port on `from` that leads to neighbor `to`
// (0 if not adjacent).
func (t *Topology) PortTowards(from, to SwitchID) PortNo {
	for _, nb := range t.Neighbors(from) {
		if nb.Peer == to {
			return nb.Via
		}
	}
	return 0
}

// Validate checks structural invariants: all links reference known switches
// and no port is double-booked between links and access points.
func (t *Topology) Validate() error {
	used := map[Endpoint]string{}
	for _, l := range t.links {
		for _, e := range []Endpoint{l.A, l.B} {
			if _, ok := t.switches[e.Switch]; !ok {
				return fmt.Errorf("topology: link references unknown switch %d", e.Switch)
			}
			if prev, clash := used[e]; clash {
				return fmt.Errorf("topology: port %s used by both %s and link", e, prev)
			}
			used[e] = "link"
		}
	}
	for _, ap := range t.accessPoints {
		if prev, clash := used[ap.Endpoint]; clash {
			return fmt.Errorf("topology: port %s used by both %s and access point", ap.Endpoint, prev)
		}
		used[ap.Endpoint] = "access-point"
	}
	return nil
}
