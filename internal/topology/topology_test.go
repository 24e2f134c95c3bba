package topology

import "testing"

func TestAddLinkValidation(t *testing.T) {
	tp := New()
	tp.AddSwitch(1, 2)
	tp.AddSwitch(2, 2)
	if err := tp.AddLink(Link{A: Endpoint{1, 1}, B: Endpoint{2, 1}}); err != nil {
		t.Fatal(err)
	}
	// Reusing a wired port fails.
	if err := tp.AddLink(Link{A: Endpoint{1, 1}, B: Endpoint{2, 2}}); err == nil {
		t.Error("double-booked port accepted")
	}
	// Unknown switch fails.
	if err := tp.AddLink(Link{A: Endpoint{9, 1}, B: Endpoint{2, 2}}); err == nil {
		t.Error("unknown switch accepted")
	}
	// Port out of range fails.
	if err := tp.AddLink(Link{A: Endpoint{1, 5}, B: Endpoint{2, 2}}); err == nil {
		t.Error("out-of-range port accepted")
	}
}

func TestAccessPointValidation(t *testing.T) {
	tp := New()
	tp.AddSwitch(1, 3)
	tp.AddSwitch(2, 3)
	if err := tp.AddLink(Link{A: Endpoint{1, 1}, B: Endpoint{2, 1}}); err != nil {
		t.Fatal(err)
	}
	// Access point on internal port fails.
	if err := tp.AddAccessPoint(AccessPoint{Endpoint: Endpoint{1, 1}}); err == nil {
		t.Error("access point on internal port accepted")
	}
	if err := tp.AddAccessPoint(AccessPoint{Endpoint: Endpoint{1, 2}, ClientID: 5}); err != nil {
		t.Fatal(err)
	}
	// Duplicate access point fails.
	if err := tp.AddAccessPoint(AccessPoint{Endpoint: Endpoint{1, 2}}); err == nil {
		t.Error("duplicate access point accepted")
	}
	ap, ok := tp.AccessPointAt(Endpoint{1, 2})
	if !ok || ap.ClientID != 5 {
		t.Errorf("AccessPointAt = %+v, %v", ap, ok)
	}
}

func TestPeerSymmetry(t *testing.T) {
	tp := New()
	tp.AddSwitch(1, 2)
	tp.AddSwitch(2, 2)
	if err := tp.AddLink(Link{A: Endpoint{1, 2}, B: Endpoint{2, 1}}); err != nil {
		t.Fatal(err)
	}
	p, ok := tp.Peer(Endpoint{1, 2})
	if !ok || p != (Endpoint{2, 1}) {
		t.Errorf("peer = %v, %v", p, ok)
	}
	p, ok = tp.Peer(Endpoint{2, 1})
	if !ok || p != (Endpoint{1, 2}) {
		t.Errorf("reverse peer = %v, %v", p, ok)
	}
	if _, ok := tp.Peer(Endpoint{1, 1}); ok {
		t.Error("unwired port should have no peer")
	}
}

func TestShortestPathLinear(t *testing.T) {
	tp, err := Linear(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := tp.ShortestPath(1, 5)
	if len(path) != 5 || path[0] != 1 || path[4] != 5 {
		t.Errorf("path = %v", path)
	}
	if got := tp.ShortestPath(3, 3); len(got) != 1 {
		t.Errorf("self path = %v", got)
	}
	if tp.PortTowards(1, 2) != 2 || tp.PortTowards(2, 1) != 1 {
		t.Error("PortTowards wrong in chain")
	}
	if tp.PortTowards(1, 5) != 0 {
		t.Error("non-adjacent should be 0")
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	tp := New()
	tp.AddSwitch(1, 2)
	tp.AddSwitch(2, 2)
	if tp.ShortestPath(1, 2) != nil {
		t.Error("disconnected switches should be unreachable")
	}
}

func TestFatTreeStructure(t *testing.T) {
	k := 4
	tp, err := FatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	// k=4: 4 core + 8 agg + 8 edge = 20 switches, 16 hosts.
	if got := len(tp.Switches()); got != 20 {
		t.Errorf("switches = %d, want 20", got)
	}
	if got := len(tp.AccessPoints()); got != 16 {
		t.Errorf("hosts = %d, want 16", got)
	}
	// Any two edge switches are connected.
	aps := tp.AccessPoints()
	src, dst := aps[0].Endpoint.Switch, aps[len(aps)-1].Endpoint.Switch
	path := tp.ShortestPath(src, dst)
	if path == nil {
		t.Fatal("fat tree not connected")
	}
	// Cross-pod paths are edge-agg-core-agg-edge = 5 switches.
	if len(path) != 5 {
		t.Errorf("cross-pod path length = %d, want 5", len(path))
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	if _, err := FatTree(3); err == nil {
		t.Error("odd k accepted")
	}
}

func TestRingConnected(t *testing.T) {
	tp, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Opposite nodes: path length 4 (1-2-3-4 or 1-6-5-4).
	path := tp.ShortestPath(1, 4)
	if len(path) != 4 {
		t.Errorf("ring path = %v", path)
	}
}

func TestStar(t *testing.T) {
	tp, err := Star(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tp.Switches()); got != 6 {
		t.Errorf("switches = %d, want 6", got)
	}
	// Leaf to leaf goes through the hub: 3 switches.
	if path := tp.ShortestPath(2, 6); len(path) != 3 {
		t.Errorf("leaf-leaf path = %v", path)
	}
}

func TestGrid(t *testing.T) {
	tp, err := Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tp.Switches()); got != 12 {
		t.Errorf("switches = %d", got)
	}
	// Manhattan corner-to-corner: 3+4-1 = 6 switches.
	if path := tp.ShortestPath(1, 12); len(path) != 6 {
		t.Errorf("corner path = %v", path)
	}
}

func TestMultiRegionWAN(t *testing.T) {
	regions := []Region{"eu-west", "us-east", "ap-south"}
	tp, err := MultiRegionWAN(regions, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tp.Regions(); len(got) != 3 {
		t.Errorf("regions = %v", got)
	}
	if tp.RegionOf(1) != "eu-west" {
		t.Errorf("region of sw1 = %q", tp.RegionOf(1))
	}
	// Clients exist in each region.
	if len(tp.AccessPoints()) < 3 {
		t.Errorf("access points = %d", len(tp.AccessPoints()))
	}
	// All regions mutually reachable.
	if tp.ShortestPath(1, 2001) == nil {
		t.Error("regions not connected")
	}
}

func TestRandomGeometricConnected(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		tp, err := RandomGeometric(12, 0.1, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.Validate(); err != nil {
			t.Fatal(err)
		}
		for i := 2; i <= 12; i++ {
			if tp.ShortestPath(1, SwitchID(i)) == nil {
				t.Fatalf("seed %d: switch %d unreachable", seed, i)
			}
		}
	}
}

func TestHostAddrDeterministic(t *testing.T) {
	m1, i1 := HostAddr(3, 0)
	m2, i2 := HostAddr(3, 0)
	if m1 != m2 || i1 != i2 {
		t.Error("HostAddr not deterministic")
	}
	m3, i3 := HostAddr(4, 0)
	if m1 == m3 || i1 == i3 {
		t.Error("HostAddr collision across switches")
	}
}

func TestAccessPointByIP(t *testing.T) {
	tp, err := Linear(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := tp.AccessPoints()[1]
	got, ok := tp.AccessPointByIP(want.HostIP)
	if !ok || got.Endpoint != want.Endpoint {
		t.Errorf("AccessPointByIP = %+v, %v", got, ok)
	}
	if _, ok := tp.AccessPointByIP(0xFFFFFFFF); ok {
		t.Error("bogus IP found")
	}
}

func TestEdgePorts(t *testing.T) {
	tp, err := Linear(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	eps := tp.EdgePorts()
	if len(eps) == 0 {
		t.Fatal("no edge ports on linear-3")
	}
	for i, ep := range eps {
		if tp.IsInternal(ep) {
			t.Errorf("edge port %s is internal", ep)
		}
		if i > 0 {
			prev := eps[i-1]
			if ep.Switch < prev.Switch || (ep.Switch == prev.Switch && ep.Port <= prev.Port) {
				t.Errorf("edge ports unordered: %s after %s", ep, prev)
			}
		}
	}
	// Every access point sits on an edge port.
	for _, ap := range tp.AccessPoints() {
		found := false
		for _, ep := range eps {
			if ep == ap.Endpoint {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("access point %s missing from edge ports", ap.Endpoint)
		}
	}
}
