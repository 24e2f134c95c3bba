package controlplane

import (
	"sync"
	"testing"

	"repro/internal/fabric"
	"repro/internal/topology"
	"repro/internal/wire"
)

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

func buildLinear(t *testing.T, n int) (*fabric.Fabric, *Controller, []topology.AccessPoint) {
	t.Helper()
	topo, err := topology.Linear(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fabric.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	c := New(f)
	if err := c.InstallAllPairs(); err != nil {
		t.Fatal(err)
	}
	return f, c, topo.AccessPoints()
}

func udp(src, dst topology.AccessPoint) *wire.Packet {
	return &wire.Packet{
		EthDst: dst.HostMAC, EthSrc: src.HostMAC, EthType: wire.EthTypeIPv4,
		IPSrc: src.HostIP, IPDst: dst.HostIP,
		IPProto: wire.IPProtoUDP, TTL: 64, L4Src: 40000, L4Dst: 443,
	}
}

func TestAllPairsConnectivity(t *testing.T) {
	f, _, aps := buildLinear(t, 4)
	for i, src := range aps {
		for j, dst := range aps {
			if i == j {
				continue
			}
			var mb mailbox
			if err := f.AttachHost(dst.Endpoint, mb.handler); err != nil {
				t.Fatal(err)
			}
			if err := f.InjectFromHost(src.Endpoint, udp(src, dst)); err != nil {
				t.Fatal(err)
			}
			if mb.count() != 1 {
				t.Errorf("%s -> %s: delivered %d", src.Endpoint, dst.Endpoint, mb.count())
			}
			if err := f.AttachHost(dst.Endpoint, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestUninstallDestination(t *testing.T) {
	f, c, aps := buildLinear(t, 3)
	c.UninstallDestination(aps[2].HostIP)
	var mb mailbox
	if err := f.AttachHost(aps[2].Endpoint, mb.handler); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFromHost(aps[0].Endpoint, udp(aps[0], aps[2])); err != nil {
		t.Fatal(err)
	}
	if mb.count() != 0 {
		t.Error("traffic delivered after uninstall")
	}
}

func TestExfiltrationClonesTraffic(t *testing.T) {
	// Linear topology has no free ports, so use a star whose hub has spare
	// capacity? Simpler: grid with unused port numbers.
	topo, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Grid switch 1 (corner) uses ports 2(S),4(E),5(host): port 1 and 3 free.
	f, err := fabric.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := New(f)
	if err := c.InstallAllPairs(); err != nil {
		t.Fatal(err)
	}
	aps := topo.AccessPoints()
	victim := aps[3]                             // switch 4
	src := aps[0]                                // switch 1
	tap := topology.Endpoint{Switch: 4, Port: 1} // unused on sw4? port1=N link exists (2x2: sw4 has N link to sw2 via port1). Use port 3 (W is link to sw3)... compute a free port instead.
	tap = freeEdgePort(t, topo, 4)

	atk := &Exfiltration{VictimIP: victim.HostIP, Tap: tap}
	if err := atk.Launch(c); err != nil {
		t.Fatal(err)
	}
	var victimMB, tapMB mailbox
	if err := f.AttachHost(victim.Endpoint, victimMB.handler); err != nil {
		t.Fatal(err)
	}
	if err := f.AttachHost(tap, tapMB.handler); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFromHost(src.Endpoint, udp(src, victim)); err != nil {
		t.Fatal(err)
	}
	if victimMB.count() != 1 {
		t.Errorf("victim deliveries = %d (attack must stay invisible)", victimMB.count())
	}
	if tapMB.count() != 1 {
		t.Errorf("tap deliveries = %d (exfiltration failed)", tapMB.count())
	}
	// Revert removes the clone.
	if err := atk.Revert(c); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFromHost(src.Endpoint, udp(src, victim)); err != nil {
		t.Fatal(err)
	}
	if tapMB.count() != 1 {
		t.Error("tap still receiving after revert")
	}
}

// freeEdgePort finds an unwired, non-access-point port on a switch.
func freeEdgePort(t *testing.T, topo *topology.Topology, sw topology.SwitchID) topology.Endpoint {
	t.Helper()
	for p := topology.PortNo(1); p <= topo.PortCount(sw); p++ {
		ep := topology.Endpoint{Switch: sw, Port: p}
		if topo.IsInternal(ep) {
			continue
		}
		if _, used := topo.AccessPointAt(ep); used {
			continue
		}
		return ep
	}
	t.Fatalf("no free port on switch %d", sw)
	return topology.Endpoint{}
}

func TestJoinAttackGrantsAccess(t *testing.T) {
	topo, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fabric.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := New(f)
	if err := c.InstallAllPairs(); err != nil {
		t.Fatal(err)
	}
	aps := topo.AccessPoints()
	victim := aps[0]
	secret := freeEdgePort(t, topo, 4)
	attackerIP := wire.IPv4(172, 16, 6, 6)

	var victimMB mailbox
	if err := f.AttachHost(victim.Endpoint, victimMB.handler); err != nil {
		t.Fatal(err)
	}
	evilPkt := &wire.Packet{
		EthDst: victim.HostMAC, EthSrc: 0x66, EthType: wire.EthTypeIPv4,
		IPSrc: attackerIP, IPDst: victim.HostIP,
		IPProto: wire.IPProtoUDP, TTL: 64, L4Src: 6666, L4Dst: 22,
	}
	// Before the attack the secret port has no path to the victim (routing
	// matches IPDst but the secret host's packets do match the tree —
	// verify against the src-constrained rule instead: inject and count).
	base := victimMB.count()
	atk := &JoinAttack{VictimIP: victim.HostIP, SecretAP: secret, AttackerIP: attackerIP}
	if err := atk.Launch(c); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFromHost(secret, evilPkt); err != nil {
		t.Fatal(err)
	}
	if victimMB.count() != base+1 {
		t.Errorf("join attack did not deliver (count=%d)", victimMB.count())
	}
	if err := atk.Revert(c); err != nil {
		t.Fatal(err)
	}
}

func TestNeutralityViolationDropsClass(t *testing.T) {
	f, c, aps := buildLinear(t, 3)
	victim := aps[2]
	atk := &NeutralityViolation{VictimIP: victim.HostIP, L4Dst: 443}
	if err := atk.Launch(c); err != nil {
		t.Fatal(err)
	}
	var mb mailbox
	if err := f.AttachHost(victim.Endpoint, mb.handler); err != nil {
		t.Fatal(err)
	}
	// Class 443 dropped.
	if err := f.InjectFromHost(aps[0].Endpoint, udp(aps[0], victim)); err != nil {
		t.Fatal(err)
	}
	if mb.count() != 0 {
		t.Error("throttled class delivered")
	}
	// Other traffic unaffected.
	other := udp(aps[0], victim)
	other.L4Dst = 80
	if err := f.InjectFromHost(aps[0].Endpoint, other); err != nil {
		t.Fatal(err)
	}
	if mb.count() != 1 {
		t.Error("unrelated class dropped")
	}
}

func TestTrafficDiversionLengthensPath(t *testing.T) {
	topo, err := topology.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fabric.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := New(f)
	if err := c.InstallAllPairs(); err != nil {
		t.Fatal(err)
	}
	aps := topo.AccessPoints()
	src, victim := aps[0], aps[1] // adjacent: sw1 -> sw2
	var mb mailbox
	if err := f.AttachHost(victim.Endpoint, mb.handler); err != nil {
		t.Fatal(err)
	}
	f.SetTracing(true)
	if err := f.InjectFromHost(src.Endpoint, udp(src, victim)); err != nil {
		t.Fatal(err)
	}
	direct := linkHops(f)
	atk := &TrafficDiversion{VictimIP: victim.HostIP, Detour: 9} // far corner
	if err := atk.Launch(c); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFromHost(src.Endpoint, udp(src, victim)); err != nil {
		t.Fatal(err)
	}
	diverted := linkHops(f)
	if mb.count() != 2 {
		t.Fatalf("deliveries = %d, want 2 (diversion must still deliver)", mb.count())
	}
	if diverted <= direct {
		t.Errorf("diverted path (%d links) not longer than direct (%d)", diverted, direct)
	}
}

func TestFlapAttackPhases(t *testing.T) {
	f, c, aps := buildLinear(t, 3)
	victim := aps[2]
	flap := &FlapAttack{Inner: &NeutralityViolation{VictimIP: victim.HostIP, L4Dst: 443}}
	var mb mailbox
	if err := f.AttachHost(victim.Endpoint, mb.handler); err != nil {
		t.Fatal(err)
	}
	send := func() {
		if err := f.InjectFromHost(aps[0].Endpoint, udp(aps[0], victim)); err != nil {
			t.Fatal(err)
		}
	}
	send() // clean phase: delivered
	if err := flap.Launch(c); err != nil {
		t.Fatal(err)
	}
	if !flap.Active() {
		t.Error("flap should be active")
	}
	send() // attack phase: dropped
	if err := flap.Revert(c); err != nil {
		t.Fatal(err)
	}
	send() // clean again: delivered
	if mb.count() != 2 {
		t.Errorf("deliveries = %d, want 2", mb.count())
	}
	// Idempotent launch/revert.
	if err := flap.Revert(c); err != nil {
		t.Fatal(err)
	}
	if err := flap.Launch(c); err != nil {
		t.Fatal(err)
	}
	if err := flap.Revert(c); err != nil {
		t.Fatal(err)
	}
}

func TestGeoViolationReroutes(t *testing.T) {
	regions := []topology.Region{"eu", "offshore", "us"}
	topo, err := topology.MultiRegionWAN(regions, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fabric.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c := New(f)
	if err := c.InstallAllPairs(); err != nil {
		t.Fatal(err)
	}
	aps := topo.AccessPoints()
	var src, dst topology.AccessPoint
	for _, ap := range aps {
		switch topo.RegionOf(ap.Endpoint.Switch) {
		case "eu":
			src = ap
		case "us":
			dst = ap
		}
	}
	// Route eu -> us via an offshore switch.
	var offshoreSw topology.SwitchID
	for _, sw := range topo.Switches() {
		if topo.RegionOf(sw) == "offshore" {
			offshoreSw = sw
			break
		}
	}
	f.SetTracing(true)
	var mb mailbox
	if err := f.AttachHost(dst.Endpoint, mb.handler); err != nil {
		t.Fatal(err)
	}
	atk := &GeoViolation{SrcIP: src.HostIP, DstIP: dst.HostIP, Via: offshoreSw}
	if err := atk.Launch(c); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectFromHost(src.Endpoint, udp(src, dst)); err != nil {
		t.Fatal(err)
	}
	if mb.count() != 1 {
		t.Fatal("geo-diverted packet not delivered")
	}
	// Ground truth: the trace must include a switch in the offshore region.
	seenOffshore := false
	for _, ev := range f.Trace() {
		if !ev.Host && ev.To.Switch != 0 && topo.RegionOf(ev.To.Switch) == "offshore" {
			seenOffshore = true
		}
	}
	if !seenOffshore {
		t.Error("traffic did not traverse the offshore region")
	}
}

// linkHops counts, and clears, the internal-link traversals traced so far.
func linkHops(f *fabric.Fabric) int {
	n := 0
	for _, ev := range f.Trace() {
		if !ev.Host && ev.From != (topology.Endpoint{}) {
			n++
		}
	}
	return n
}
