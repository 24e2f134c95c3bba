package fabric

import (
	"sync"
	"testing"

	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// mailbox collects host-delivered frames.
type mailbox struct {
	mu  sync.Mutex
	got []*wire.Packet
}

func (m *mailbox) handler(pkt *wire.Packet) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.got = append(m.got, pkt)
}

func (m *mailbox) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.got)
}

func (m *mailbox) last() *wire.Packet {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.got) == 0 {
		return nil
	}
	return m.got[len(m.got)-1]
}

// installPath programs exact IPDst forwarding along the shortest path from
// the src access point to the dst access point.
func installPath(t *testing.T, f *Fabric, src, dst topology.AccessPoint) {
	t.Helper()
	topo := f.Topology()
	path := topo.ShortestPath(src.Endpoint.Switch, dst.Endpoint.Switch)
	if path == nil {
		t.Fatal("no path")
	}
	for i, sw := range path {
		var out topology.PortNo
		if i == len(path)-1 {
			out = dst.Endpoint.Port
		} else {
			out = topo.PortTowards(sw, path[i+1])
		}
		f.Switch(sw).InstallDirect(openflow.FlowEntry{
			Priority: 100,
			Match: openflow.Match{Fields: []openflow.FieldMatch{
				{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF},
			}},
			Actions: []openflow.Action{openflow.Output(uint32(out))},
			Cookie:  uint64(sw),
		})
	}
}

func linearFabric(t *testing.T, n int) (*Fabric, []topology.AccessPoint) {
	t.Helper()
	topo, err := topology.Linear(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, topo.AccessPoints()
}

func udp(src, dst topology.AccessPoint) *wire.Packet {
	return &wire.Packet{
		EthDst: dst.HostMAC, EthSrc: src.HostMAC, EthType: wire.EthTypeIPv4,
		IPSrc: src.HostIP, IPDst: dst.HostIP,
		IPProto: wire.IPProtoUDP, TTL: 64, L4Src: 40000, L4Dst: 9,
	}
}

func TestEndToEndDelivery(t *testing.T) {
	f, aps := linearFabric(t, 4)
	src, dst := aps[0], aps[3]
	installPath(t, f, src, dst)

	var mb mailbox
	if err := f.AttachHost(dst.Endpoint, mb.handler); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFromHost(src.Endpoint, udp(src, dst)); err != nil {
		t.Fatal(err)
	}
	if mb.count() != 1 {
		t.Fatalf("delivered = %d, want 1", mb.count())
	}
	// TTL decremented once per internal link (3 links).
	if got := mb.last().TTL; got != 61 {
		t.Errorf("TTL = %d, want 61", got)
	}
	if f.LinkDeliveries() != 3 {
		t.Errorf("link deliveries = %d, want 3", f.LinkDeliveries())
	}
}

func TestNoRuleNoDelivery(t *testing.T) {
	f, aps := linearFabric(t, 3)
	var mb mailbox
	if err := f.AttachHost(aps[2].Endpoint, mb.handler); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFromHost(aps[0].Endpoint, udp(aps[0], aps[2])); err != nil {
		t.Fatal(err)
	}
	if mb.count() != 0 {
		t.Error("packet delivered without installed rules")
	}
}

func TestTTLBoundsForwardingLoop(t *testing.T) {
	topo, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Program every switch to forward everything clockwise: loop.
	for _, sw := range topo.Switches() {
		f.Switch(sw).InstallDirect(openflow.FlowEntry{
			Priority: 1,
			Match:    openflow.Match{InPort: openflow.AnyPort},
			Actions:  []openflow.Action{openflow.Output(2)},
		})
	}
	src := topo.AccessPoints()[0]
	pkt := udp(src, src)
	pkt.TTL = 16
	if err := f.InjectFromHost(src.Endpoint, pkt); err != nil {
		t.Fatal(err)
	}
	// The packet must die after TTL hops, not hang the test.
	if got := f.LinkDeliveries(); got > 16 {
		t.Errorf("loop traversals = %d, want <= 16", got)
	}
}

func TestTraceCapture(t *testing.T) {
	f, aps := linearFabric(t, 3)
	installPath(t, f, aps[0], aps[2])
	f.SetTracing(true)
	var mb mailbox
	if err := f.AttachHost(aps[2].Endpoint, mb.handler); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFromHost(aps[0].Endpoint, udp(aps[0], aps[2])); err != nil {
		t.Fatal(err)
	}
	tr := f.Trace()
	// inject + 2 links + host delivery = 4 events.
	if len(tr) != 4 {
		t.Fatalf("trace events = %d: %+v", len(tr), tr)
	}
	if !tr[len(tr)-1].Host {
		t.Error("last event should be host delivery")
	}
	// Buffer cleared after read.
	if len(f.Trace()) != 0 {
		t.Error("trace not cleared")
	}
}

func TestAttachHostValidation(t *testing.T) {
	f, _ := linearFabric(t, 3)
	// Internal port rejected.
	if err := f.AttachHost(topology.Endpoint{Switch: 1, Port: 2}, nil); err == nil {
		t.Error("internal port accepted")
	}
	// Unknown switch rejected.
	if err := f.AttachHost(topology.Endpoint{Switch: 99, Port: 1}, nil); err == nil {
		t.Error("unknown switch accepted")
	}
}

func TestInjectUnknownSwitch(t *testing.T) {
	f, _ := linearFabric(t, 2)
	err := f.InjectFromHost(topology.Endpoint{Switch: 42, Port: 1}, &wire.Packet{})
	if err == nil {
		t.Error("unknown switch accepted")
	}
}

func TestMulticastToTwoHosts(t *testing.T) {
	topo, err := topology.Star(3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	aps := topo.AccessPoints()
	// Hub floods; leaves forward to their host port.
	f.Switch(1).InstallDirect(openflow.FlowEntry{
		Priority: 1, Match: openflow.Match{InPort: openflow.AnyPort},
		Actions: []openflow.Action{openflow.Output(openflow.FloodPort)},
	})
	for _, ap := range aps {
		f.Switch(ap.Endpoint.Switch).InstallDirect(openflow.FlowEntry{
			Priority: 1, Match: openflow.Match{InPort: 1},
			Actions: []openflow.Action{openflow.Output(uint32(ap.Endpoint.Port))},
		})
		// And from host toward hub.
		f.Switch(ap.Endpoint.Switch).InstallDirect(openflow.FlowEntry{
			Priority: 1, Match: openflow.Match{InPort: uint32(ap.Endpoint.Port)},
			Actions: []openflow.Action{openflow.Output(1)},
		})
	}
	var mb1, mb2 mailbox
	if err := f.AttachHost(aps[1].Endpoint, mb1.handler); err != nil {
		t.Fatal(err)
	}
	if err := f.AttachHost(aps[2].Endpoint, mb2.handler); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFromHost(aps[0].Endpoint, udp(aps[0], aps[1])); err != nil {
		t.Fatal(err)
	}
	if mb1.count() != 1 || mb2.count() != 1 {
		t.Errorf("multicast: mb1=%d mb2=%d", mb1.count(), mb2.count())
	}
}

func TestHostDeliveriesCounter(t *testing.T) {
	f, aps := linearFabric(t, 2)
	installPath(t, f, aps[0], aps[1])
	var mb mailbox
	if err := f.AttachHost(aps[1].Endpoint, mb.handler); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.InjectFromHost(aps[0].Endpoint, udp(aps[0], aps[1])); err != nil {
			t.Fatal(err)
		}
	}
	if f.HostDeliveries() != 3 {
		t.Errorf("host deliveries = %d", f.HostDeliveries())
	}
}

func TestDetachHost(t *testing.T) {
	f, aps := linearFabric(t, 2)
	installPath(t, f, aps[0], aps[1])
	var mb mailbox
	if err := f.AttachHost(aps[1].Endpoint, mb.handler); err != nil {
		t.Fatal(err)
	}
	if err := f.AttachHost(aps[1].Endpoint, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFromHost(aps[0].Endpoint, udp(aps[0], aps[1])); err != nil {
		t.Fatal(err)
	}
	if mb.count() != 0 {
		t.Error("detached host still received frames")
	}
}
