package rvaas_test

import (
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// buildFederation wires two providers A and B: traffic leaving A at a
// dedicated peering port enters B at a dedicated peering port (paper §IV-C:
// "queries may not be limited to a single provider but may recursively span
// consecutive networks along a route").
func buildFederation(t *testing.T) (*deploy.Deployment, *deploy.Deployment, topology.AccessPoint, topology.AccessPoint) {
	t.Helper()
	topoA, err := topology.MultiRegionWAN([]topology.Region{"a-north", "a-south"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	topoB, err := topology.MultiRegionWAN([]topology.Region{"b-east", "b-west"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	dA, err := deploy.New(topoA, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dA.Close)
	dB, err := deploy.New(topoB, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dB.Close)

	// Pick free edge ports as the peering interfaces.
	egressA := freePort(t, topoA)
	entryB := freePort(t, topoB)

	// The destination host lives in provider B.
	dstB := topoB.AccessPoints()[len(topoB.AccessPoints())-1]
	srcA := topoA.AccessPoints()[0]

	// Provider A routes the B-destined prefix toward its peering port.
	for _, sw := range topoA.Switches() {
		var out topology.PortNo
		if sw == egressA.Switch {
			out = egressA.Port
		} else {
			path := topoA.ShortestPath(sw, egressA.Switch)
			if path == nil || len(path) < 2 {
				continue
			}
			out = topoA.PortTowards(sw, path[1])
		}
		dA.Fabric.Switch(sw).InstallDirect(openflow.FlowEntry{
			Priority: 150,
			Match: openflow.Match{Fields: []openflow.FieldMatch{
				{Field: wire.FieldIPDst, Value: uint64(dstB.HostIP), Mask: 0xFFFFFFFF},
			}},
			Actions: []openflow.Action{openflow.Output(uint32(out))},
			Cookie:  0x9999,
		})
	}
	if err := dA.RVaaS.PollAll(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Register the peering on A's RVaaS.
	dA.RVaaS.AddPeer(egressA, dB.RVaaS, entryB)
	return dA, dB, srcA, dstB
}

func freePort(t *testing.T, topo *topology.Topology) topology.Endpoint {
	t.Helper()
	for _, sw := range topo.Switches() {
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
	}
	t.Fatal("no free peering port")
	return topology.Endpoint{}
}

func TestFederatedGeoQuery(t *testing.T) {
	dA, _, srcA, dstB := buildFederation(t)
	agent := dA.Agent(srcA.ClientID)
	resp, err := agent.Query(wire.QueryGeoRegions, ipConstraint(dstB.HostIP), "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("status = %s (%s)", resp.Status, resp.Detail)
	}
	regions := map[string]bool{}
	for _, r := range resp.Regions {
		regions[r] = true
	}
	// Must include regions from provider A's traversal AND from provider
	// B's continuation.
	hasA, hasB := false, false
	for r := range regions {
		if r == "a-north" || r == "a-south" {
			hasA = true
		}
		if r == "b-east" || r == "b-west" {
			hasB = true
		}
	}
	if !hasA || !hasB {
		t.Errorf("federated regions missing a provider: %v", resp.Regions)
	}
}

func TestFederatedReachable(t *testing.T) {
	dA, dB, srcA, dstB := buildFederation(t)
	// Direct federation API: endpoints reachable from A's client port for
	// traffic destined to B.
	eps := dA.RVaaS.FederatedReachable(
		srcA.Endpoint,
		ipConstraint(dstB.HostIP),
	)
	if len(eps) == 0 {
		t.Fatal("no federated endpoints")
	}
	// The final endpoint must be the destination's access point inside B.
	want := dstB.Endpoint.String()
	found := false
	for _, e := range eps {
		if e == want {
			found = true
		}
	}
	if !found {
		t.Errorf("federated endpoints %v missing %s", eps, want)
	}
	_ = dB
}
