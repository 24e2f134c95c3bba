package topology

import (
	"fmt"
	"math/rand"

	"repro/internal/wire"
)

// Generators build standard evaluation topologies. Each generator attaches
// one client host per edge switch unless stated otherwise, assigning MACs
// 0x0200000000xx and IPs 10.0.<sw>.<n>.

// HostAddr derives deterministic host addressing for (switch, seq).
func HostAddr(sw SwitchID, seq int) (mac uint64, ip uint32) {
	mac = 0x020000000000 | uint64(sw)<<8 | uint64(seq&0xff)
	ip = wire.IPv4(10, byte(sw>>8), byte(sw), byte(seq+1))
	return mac, ip
}

// Linear builds a chain of n switches. Port 1 connects left, port 2 right,
// port 3 hosts a client access point on every switch.
func Linear(n int, clientIDs []uint64) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: linear needs n >= 1, got %d", n)
	}
	t := New()
	for i := 1; i <= n; i++ {
		t.AddSwitch(SwitchID(i), 3)
	}
	for i := 1; i < n; i++ {
		err := t.AddLink(Link{
			A: Endpoint{SwitchID(i), 2},
			B: Endpoint{SwitchID(i + 1), 1},
		})
		if err != nil {
			return nil, err
		}
	}
	for i := 1; i <= n; i++ {
		cid := uint64(i)
		if len(clientIDs) > 0 {
			cid = clientIDs[(i-1)%len(clientIDs)]
		}
		mac, ip := HostAddr(SwitchID(i), 0)
		err := t.AddAccessPoint(AccessPoint{
			Endpoint: Endpoint{SwitchID(i), 3},
			ClientID: cid, HostMAC: mac, HostIP: ip,
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Ring builds a cycle of n switches (used to exercise loop detection).
func Ring(n int) (*Topology, error) {
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs n >= 3, got %d", n)
	}
	t := New()
	for i := 1; i <= n; i++ {
		t.AddSwitch(SwitchID(i), 3)
	}
	for i := 1; i <= n; i++ {
		next := i%n + 1
		err := t.AddLink(Link{
			A: Endpoint{SwitchID(i), 2},
			B: Endpoint{SwitchID(next), 1},
		})
		if err != nil {
			return nil, err
		}
	}
	for i := 1; i <= n; i++ {
		mac, ip := HostAddr(SwitchID(i), 0)
		err := t.AddAccessPoint(AccessPoint{
			Endpoint: Endpoint{SwitchID(i), 3},
			ClientID: uint64(i), HostMAC: mac, HostIP: ip,
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Star builds a hub with n leaf switches, each leaf hosting one client.
func Star(n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: star needs n >= 1, got %d", n)
	}
	t := New()
	hub := SwitchID(1)
	t.AddSwitch(hub, PortNo(n))
	for i := 1; i <= n; i++ {
		leaf := SwitchID(1 + i)
		t.AddSwitch(leaf, 2)
		err := t.AddLink(Link{
			A: Endpoint{hub, PortNo(i)},
			B: Endpoint{leaf, 1},
		})
		if err != nil {
			return nil, err
		}
		mac, ip := HostAddr(leaf, 0)
		err = t.AddAccessPoint(AccessPoint{
			Endpoint: Endpoint{leaf, 2},
			ClientID: uint64(i), HostMAC: mac, HostIP: ip,
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// FatTree builds a k-ary fat tree (k even): (k/2)^2 core switches, k pods
// of k/2 aggregation + k/2 edge switches, with one host per edge switch
// port. Hosts per pod = (k/2)^2. Port numbering: on edge switches ports
// 1..k/2 go up to aggregation, ports k/2+1..k host clients.
func FatTree(k int) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat tree needs even k >= 2, got %d", k)
	}
	t := New()
	half := k / 2
	numCore := half * half

	// ID layout: core 1..numCore; per pod p (0-based):
	// agg = 1000 + p*half + a, edge = 2000 + p*half + e.
	coreID := func(i int) SwitchID { return SwitchID(1 + i) }
	aggID := func(p, a int) SwitchID { return SwitchID(1000 + p*half + a) }
	edgeID := func(p, e int) SwitchID { return SwitchID(2000 + p*half + e) }

	for i := 0; i < numCore; i++ {
		t.AddSwitch(coreID(i), PortNo(k))
	}
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			t.AddSwitch(aggID(p, a), PortNo(k))
		}
		for e := 0; e < half; e++ {
			t.AddSwitch(edgeID(p, e), PortNo(k))
		}
	}

	// Core <-> aggregation: core switch (a*half + c) connects to
	// aggregation switch a of every pod.
	for a := 0; a < half; a++ {
		for c := 0; c < half; c++ {
			core := coreID(a*half + c)
			for p := 0; p < k; p++ {
				err := t.AddLink(Link{
					A: Endpoint{core, PortNo(p + 1)},
					B: Endpoint{aggID(p, a), PortNo(half + c + 1)},
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	// Aggregation <-> edge within each pod.
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			for e := 0; e < half; e++ {
				err := t.AddLink(Link{
					A: Endpoint{aggID(p, a), PortNo(e + 1)},
					B: Endpoint{edgeID(p, e), PortNo(a + 1)},
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	// Hosts on edge switches.
	client := uint64(1)
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				sw := edgeID(p, e)
				mac, ip := HostAddr(sw, h)
				err := t.AddAccessPoint(AccessPoint{
					Endpoint: Endpoint{sw, PortNo(half + h + 1)},
					ClientID: client, HostMAC: mac, HostIP: ip,
				})
				if err != nil {
					return nil, err
				}
				client++
			}
		}
	}
	return t, nil
}

// Grid builds an r x c mesh. Ports: 1=N, 2=S, 3=W, 4=E, 5=host.
func Grid(rows, cols int) (*Topology, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("topology: grid needs positive dims")
	}
	t := New()
	id := func(r, c int) SwitchID { return SwitchID(r*cols + c + 1) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.AddSwitch(id(r, c), 5)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r+1 < rows {
				err := t.AddLink(Link{
					A: Endpoint{id(r, c), 2}, B: Endpoint{id(r+1, c), 1},
				})
				if err != nil {
					return nil, err
				}
			}
			if c+1 < cols {
				err := t.AddLink(Link{
					A: Endpoint{id(r, c), 4}, B: Endpoint{id(r, c+1), 3},
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	client := uint64(1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			sw := id(r, c)
			mac, ip := HostAddr(sw, 0)
			err := t.AddAccessPoint(AccessPoint{
				Endpoint: Endpoint{sw, 5},
				ClientID: client, HostMAC: mac, HostIP: ip,
			})
			if err != nil {
				return nil, err
			}
			client++
		}
	}
	return t, nil
}

// MultiRegionWAN builds `regions` rings of `perRegion` switches joined by
// inter-region trunks, placing each ring in its own named region. It is the
// workload for the geo-location case study (§IV-B2).
func MultiRegionWAN(regionNames []Region, perRegion int) (*Topology, error) {
	if len(regionNames) < 2 || perRegion < 2 {
		return nil, fmt.Errorf("topology: wan needs >=2 regions and >=2 switches each")
	}
	t := New()
	id := func(region, i int) SwitchID { return SwitchID(region*1000 + i + 1) }
	for ri, name := range regionNames {
		for i := 0; i < perRegion; i++ {
			sw := id(ri, i)
			t.AddSwitch(sw, 5)
			t.SetRegion(sw, name)
		}
		// Intra-region chain: port 2 right, port 1 left.
		for i := 0; i+1 < perRegion; i++ {
			err := t.AddLink(Link{
				A: Endpoint{id(ri, i), 2}, B: Endpoint{id(ri, i+1), 1},
			})
			if err != nil {
				return nil, err
			}
		}
	}
	// Inter-region trunks: last switch of region r (port 4) to first of
	// region r+1 (port 3).
	for ri := 0; ri+1 < len(regionNames); ri++ {
		err := t.AddLink(Link{
			A: Endpoint{id(ri, perRegion-1), 4}, B: Endpoint{id(ri+1, 0), 3},
		})
		if err != nil {
			return nil, err
		}
	}
	// Extra "shortcut" trunk from region 0 to the last region through which
	// a compromised controller could divert traffic (port 5 on border
	// switches of the first and last region).
	if len(regionNames) >= 3 {
		err := t.AddLink(Link{
			A: Endpoint{id(0, perRegion-1), 5},
			B: Endpoint{id(len(regionNames)-1, perRegion-1), 5},
		})
		if err != nil {
			return nil, err
		}
	}
	// One client per region on the first switch, port 5 (port 4 for the
	// shortcut-bearing switches).
	for ri := range regionNames {
		sw := id(ri, 0)
		port := PortNo(5)
		if t.IsInternal(Endpoint{sw, port}) {
			port = 4
		}
		if t.IsInternal(Endpoint{sw, port}) {
			continue
		}
		mac, ip := HostAddr(sw, 0)
		err := t.AddAccessPoint(AccessPoint{
			Endpoint: Endpoint{sw, port},
			ClientID: uint64(ri + 1), HostMAC: mac, HostIP: ip,
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RandomGeometric builds n switches and wires each pair independently with
// probability p (seeded), then connects any disconnected components
// linearly so the result is always connected. Host per switch.
func RandomGeometric(n int, p float64, seed int64) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: random needs n >= 2")
	}
	rng := rand.New(rand.NewSource(seed))
	t := New()
	// Port budget: n-1 potential links plus one host port.
	for i := 1; i <= n; i++ {
		t.AddSwitch(SwitchID(i), PortNo(n))
	}
	nextPort := make(map[SwitchID]PortNo, n)
	alloc := func(sw SwitchID) PortNo {
		nextPort[sw]++
		return nextPort[sw]
	}
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			if rng.Float64() >= p {
				continue
			}
			rng.Intn(90) // the retired link-latency draw: a seeded lab keeps its links
			err := t.AddLink(Link{
				A: Endpoint{SwitchID(i), alloc(SwitchID(i))},
				B: Endpoint{SwitchID(j), alloc(SwitchID(j))},
			})
			if err != nil {
				return nil, err
			}
		}
	}
	// Ensure connectivity via a spanning chain over unreachable nodes.
	for i := 2; i <= n; i++ {
		if t.ShortestPath(1, SwitchID(i)) == nil {
			err := t.AddLink(Link{
				A: Endpoint{SwitchID(i - 1), alloc(SwitchID(i - 1))},
				B: Endpoint{SwitchID(i), alloc(SwitchID(i))},
			})
			if err != nil {
				return nil, err
			}
		}
	}
	for i := 1; i <= n; i++ {
		sw := SwitchID(i)
		mac, ip := HostAddr(sw, 0)
		err := t.AddAccessPoint(AccessPoint{
			Endpoint: Endpoint{sw, alloc(sw)},
			ClientID: uint64(i), HostMAC: mac, HostIP: ip,
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}
