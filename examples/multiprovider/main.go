// Multi-provider federation: the paper's §IV-C extension. Traffic from a
// client of provider A exits through a peering port into provider B. A geo
// query to A's RVaaS recurses into B's RVaaS, so the client learns every
// jurisdiction along the full inter-provider route while each provider's
// topology stays confidential.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/deploy"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	topoA, err := topology.MultiRegionWAN([]topology.Region{"a-north", "a-south"}, 2)
	if err != nil {
		return err
	}
	topoB, err := topology.MultiRegionWAN([]topology.Region{"b-east", "b-west"}, 2)
	if err != nil {
		return err
	}
	dA, err := deploy.New(topoA, deploy.Options{})
	if err != nil {
		return err
	}
	defer dA.Close()
	dB, err := deploy.New(topoB, deploy.Options{})
	if err != nil {
		return err
	}
	defer dB.Close()

	egressA, err := freePort(topoA)
	if err != nil {
		return err
	}
	entryB, err := freePort(topoB)
	if err != nil {
		return err
	}
	srcA := topoA.AccessPoints()[0]
	dstB := topoB.AccessPoints()[len(topoB.AccessPoints())-1]

	// Provider A routes the B prefix toward the peering port.
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
		return err
	}
	// Providers exchange RVaaS peering contracts.
	dA.RVaaS.AddPeer(egressA, dB.RVaaS, entryB)

	fmt.Println("multi-provider RVaaS federation")
	fmt.Printf("  provider A regions: %v\n", topoA.Regions())
	fmt.Printf("  provider B regions: %v\n", topoB.Regions())
	fmt.Printf("  peering: A %s  ->  B %s\n\n", egressA, entryB)

	agent := dA.Agent(srcA.ClientID)
	resp, err := agent.Query(wire.QueryGeoRegions, []wire.FieldConstraint{
		{Field: wire.FieldIPDst, Value: uint64(dstB.HostIP), Mask: 0xFFFFFFFF},
	}, "")
	if err != nil {
		return err
	}
	fmt.Printf("client of A queries geo-regions for traffic to %s (a host in B):\n",
		wire.IPString(dstB.HostIP))
	fmt.Printf("  regions traversable across BOTH providers: %v\n", resp.Regions)
	fmt.Printf("  status: %s\n\n", resp.Status)

	eps := dA.RVaaS.FederatedReachable(srcA.Endpoint, []wire.FieldConstraint{
		{Field: wire.FieldIPDst, Value: uint64(dstB.HostIP), Mask: 0xFFFFFFFF},
	})
	fmt.Printf("federated reachable endpoints (provider-qualified): %v\n", eps)
	fmt.Println("\nEach provider answered only for its own network; the recursion result")
	fmt.Println("reveals endpoints and jurisdictions, never internal topology (§IV-C).")
	return nil
}

func freePort(topo *topology.Topology) (topology.Endpoint, error) {
	for _, sw := range topo.Switches() {
		for p := topology.PortNo(1); p <= topo.PortCount(sw); p++ {
			ep := topology.Endpoint{Switch: sw, Port: p}
			if topo.IsInternal(ep) {
				continue
			}
			if _, used := topo.AccessPointAt(ep); used {
				continue
			}
			return ep, nil
		}
	}
	return topology.Endpoint{}, fmt.Errorf("no free peering port")
}
