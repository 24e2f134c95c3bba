// Package fabric binds topology, switches and hosts into a runnable network
// emulator. Frames are forwarded exclusively by consulting switch flow
// tables, so whatever the (possibly compromised) control plane installed is
// exactly what the data plane does — the property RVaaS's in-band tests
// depend on.
package fabric

import (
	"fmt"
	"sync"

	"repro/internal/switchsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// HostHandler consumes frames delivered to a host NIC.
type HostHandler func(pkt *wire.Packet)

// TraceEvent records one link traversal or host delivery (ground truth for
// tests and experiments; invisible to RVaaS itself).
type TraceEvent struct {
	From topology.Endpoint
	To   topology.Endpoint // zero Switch for host deliveries
	Host bool
}

// RemoteDeliver ships a frame to a lab component hosted outside this
// process: the ingress port of a switch this partial fabric does not own
// (host=false), or the host NIC at an edge endpoint with no local handler
// (host=true). A placed deployment wires this to the process trunk.
type RemoteDeliver func(to topology.Endpoint, host bool, pkt *wire.Packet)

// Fabric is the running network — all of it (New), or one process's share
// of a multi-process lab (NewPartial).
type Fabric struct {
	topo     *topology.Topology
	switches map[topology.SwitchID]*switchsim.Switch
	remote   RemoteDeliver

	mu      sync.Mutex
	hosts   map[topology.Endpoint]HostHandler
	tracing bool
	trace   []TraceEvent
	// delivered counts total link traversals (for overhead experiments).
	delivered uint64
	hostRx    uint64
}

// New builds a fabric (and its switches) from a wiring plan.
func New(topo *topology.Topology) (*Fabric, error) {
	return build(topo, topo.Switches(), nil)
}

// NewPartial builds a fabric hosting only the given subset of the wiring
// plan's switches. Frames leaving an owned switch toward an unowned peer —
// and frames for edge ports with no local host handler — are handed to
// remote instead of being forwarded in-process. The full topology is still
// required: link resolution and TTL semantics are identical to the
// single-process fabric, so the verification plane sees the same network
// regardless of how it is carved into processes.
func NewPartial(topo *topology.Topology, own []topology.SwitchID, remote RemoteDeliver) (*Fabric, error) {
	if remote == nil {
		return nil, fmt.Errorf("fabric: partial fabric needs a remote deliverer")
	}
	for _, id := range own {
		if topo.PortCount(id) == 0 {
			return nil, fmt.Errorf("fabric: switch %d is not in the topology", id)
		}
	}
	return build(topo, own, remote)
}

func build(topo *topology.Topology, own []topology.SwitchID, remote RemoteDeliver) (*Fabric, error) {
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	f := &Fabric{
		topo:     topo,
		switches: make(map[topology.SwitchID]*switchsim.Switch),
		remote:   remote,
		hosts:    make(map[topology.Endpoint]HostHandler),
	}
	for _, id := range own {
		sid := id
		f.switches[sid] = switchsim.New(sid, topo.PortCount(sid), func(port topology.PortNo, pkt *wire.Packet) {
			f.deliver(topology.Endpoint{Switch: sid, Port: port}, pkt)
		})
	}
	return f, nil
}

// Topology returns the wiring plan.
func (f *Fabric) Topology() *topology.Topology { return f.topo }

// Switch returns the datapath with the given id (nil if absent).
func (f *Fabric) Switch(id topology.SwitchID) *switchsim.Switch { return f.switches[id] }

// Switches returns all datapaths keyed by id.
func (f *Fabric) Switches() map[topology.SwitchID]*switchsim.Switch {
	out := make(map[topology.SwitchID]*switchsim.Switch, len(f.switches))
	for k, v := range f.switches {
		out[k] = v
	}
	return out
}

// AttachHost registers a host NIC handler at an access-point endpoint. A
// nil handler detaches the host: frames for it are counted and dropped, or
// sent over the trunk when the host lives in another process.
func (f *Fabric) AttachHost(ep topology.Endpoint, h HostHandler) error {
	if f.topo.IsInternal(ep) {
		return fmt.Errorf("fabric: %s is an internal port", ep)
	}
	if _, ok := f.switches[ep.Switch]; !ok {
		return fmt.Errorf("fabric: unknown switch %d", ep.Switch)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hosts[ep] = h
	return nil
}

// InjectFromHost feeds a frame from a host NIC into its access switch.
func (f *Fabric) InjectFromHost(ep topology.Endpoint, pkt *wire.Packet) error {
	sw, ok := f.switches[ep.Switch]
	if !ok {
		return fmt.Errorf("fabric: unknown switch %d", ep.Switch)
	}
	f.recordTrace(TraceEvent{To: ep})
	sw.ProcessPacket(ep.Port, pkt, 0)
	return nil
}

// deliver carries a frame out of (switch, port) to the far end: the peer
// switch's pipeline for internal ports (or the remote deliverer when the
// peer lives in another process), the host handler for edge ports.
func (f *Fabric) deliver(from topology.Endpoint, pkt *wire.Packet) {
	if peer, ok := f.topo.Peer(from); ok {
		// Internal link: decrement TTL for IPv4 to bound forwarding loops
		// exactly like a real router fabric does. The decrement happens at
		// the sending fabric — a remote hop must not decrement again.
		if pkt.EthType == wire.EthTypeIPv4 {
			if pkt.TTL <= 1 {
				return
			}
			pkt.TTL--
		}
		f.mu.Lock()
		f.delivered++
		f.traceLocked(TraceEvent{From: from, To: peer})
		f.mu.Unlock()
		if dp, owned := f.switches[peer.Switch]; owned {
			dp.ProcessPacket(peer.Port, pkt, 0)
		} else if f.remote != nil {
			f.remote(peer, false, pkt)
		}
		return
	}
	// Edge port: host delivery — locally when a handler is attached, over
	// the trunk when the host's agent lives in another process.
	f.mu.Lock()
	h := f.hosts[from]
	if h == nil && f.remote != nil {
		f.mu.Unlock()
		f.remote(from, true, pkt)
		return
	}
	f.hostRx++
	f.traceLocked(TraceEvent{From: from, Host: true})
	f.mu.Unlock()
	if h != nil {
		h(pkt)
	}
}

// InjectAtPort feeds a frame arriving from another process's fabric into an
// owned switch's pipeline at the given ingress port. TTL was already
// handled by the sending fabric's link traversal.
func (f *Fabric) InjectAtPort(ep topology.Endpoint, pkt *wire.Packet) error {
	sw, ok := f.switches[ep.Switch]
	if !ok {
		return fmt.Errorf("fabric: switch %d is not hosted here", ep.Switch)
	}
	f.recordTrace(TraceEvent{To: ep})
	sw.ProcessPacket(ep.Port, pkt, 0)
	return nil
}

// DeliverToHost hands a trunk-delivered frame to the local host handler at
// ep (the partial-fabric counterpart of the edge-port path in deliver).
func (f *Fabric) DeliverToHost(ep topology.Endpoint, pkt *wire.Packet) {
	f.mu.Lock()
	h := f.hosts[ep]
	f.hostRx++
	f.traceLocked(TraceEvent{From: ep, Host: true})
	f.mu.Unlock()
	if h != nil {
		h(pkt)
	}
}

// Owns reports whether this fabric hosts the given switch's datapath.
func (f *Fabric) Owns(id topology.SwitchID) bool {
	_, ok := f.switches[id]
	return ok
}

// SetTracing toggles ground-truth trace capture.
func (f *Fabric) SetTracing(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tracing = on
	if !on {
		f.trace = nil
	}
}

// Trace returns a copy of captured events and clears the buffer.
func (f *Fabric) Trace() []TraceEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]TraceEvent, len(f.trace))
	copy(out, f.trace)
	f.trace = f.trace[:0]
	return out
}

func (f *Fabric) recordTrace(ev TraceEvent) {
	f.mu.Lock()
	f.traceLocked(ev)
	f.mu.Unlock()
}

// traceLocked appends ev when tracing is on; f.mu must be held.
func (f *Fabric) traceLocked(ev TraceEvent) {
	if f.tracing {
		f.trace = append(f.trace, ev)
	}
}

// Close shuts down every switch.
func (f *Fabric) Close() {
	for _, sw := range f.switches {
		sw.Close()
	}
}
