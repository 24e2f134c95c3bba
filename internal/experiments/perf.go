package experiments

import (
	"fmt"
	"time"

	"repro/internal/deploy"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// NamedTopology couples a label with a topology builder, for sweeps.
type NamedTopology struct {
	Name  string
	Build func() (*topology.Topology, error)
}

// StandardSweep returns the topology ladder used by E1/E3/E6/E7.
func StandardSweep() []NamedTopology {
	return []NamedTopology{
		{"linear-5", func() (*topology.Topology, error) { return topology.Linear(5, nil) }},
		{"linear-20", func() (*topology.Topology, error) { return topology.Linear(20, nil) }},
		{"linear-40", func() (*topology.Topology, error) { return topology.Linear(40, nil) }},
		{"grid-4x4", func() (*topology.Topology, error) { return topology.Grid(4, 4) }},
		{"fattree-4", func() (*topology.Topology, error) { return topology.FatTree(4) }},
		{"wan-3x3", func() (*topology.Topology, error) {
			return topology.MultiRegionWAN([]topology.Region{"eu-west", "offshore", "us-east"}, 3)
		}},
	}
}

// LatencyRow is one row of the E1 table.
type LatencyRow struct {
	Topology  string
	Switches  int
	Rules     int
	Kind      wire.QueryKind
	Mean      time.Duration
	PerSwitch time.Duration
}

// QueryLatency measures the mean end-to-end latency (Fig. 1+2 round trip:
// query injection to verified signed response) of `iters` queries of the
// given kind on a deployment built from nt.
func QueryLatency(nt NamedTopology, kind wire.QueryKind, iters int) (LatencyRow, error) {
	row := LatencyRow{Topology: nt.Name, Kind: kind}
	topo, err := nt.Build()
	if err != nil {
		return row, err
	}
	d, err := deploy.New(topo, deploy.Options{AuthTimeout: 500 * time.Millisecond})
	if err != nil {
		return row, err
	}
	defer d.Close()
	row.Switches = len(topo.Switches())
	for _, sw := range d.Fabric.Switches() {
		row.Rules += len(sw.Table())
	}
	aps := topo.AccessPoints()
	src, dst := aps[0], aps[len(aps)-1]
	agent := d.Agent(src.ClientID)
	if agent == nil {
		return row, fmt.Errorf("no agent for client %d", src.ClientID)
	}
	constraints := []wire.FieldConstraint{
		{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF},
	}
	// Warm up once.
	if _, err := agent.Query(kind, constraints, warmParam(kind)); err != nil {
		return row, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := agent.Query(kind, constraints, warmParam(kind)); err != nil {
			return row, err
		}
	}
	row.Mean = time.Since(start) / time.Duration(iters)
	if row.Switches > 0 {
		row.PerSwitch = row.Mean / time.Duration(row.Switches)
	}
	return row, nil
}

func warmParam(kind wire.QueryKind) string {
	if kind == wire.QueryPathLength {
		return "1000"
	}
	return ""
}

// IsolationLatency measures E6: the mean latency of the isolation case
// study's full query (logical sweep over every edge port plus in-band
// authentication of the tenant's partners) on a tenant-routed deployment.
func IsolationLatency(nt NamedTopology, iters int) (LatencyRow, error) {
	row := LatencyRow{Topology: nt.Name, Kind: wire.QueryIsolation}
	topo, err := nt.Build()
	if err != nil {
		return row, err
	}
	d, err := deploy.New(topo, deploy.Options{
		TenantRouting: true,
		AuthTimeout:   500 * time.Millisecond,
	})
	if err != nil {
		return row, err
	}
	defer d.Close()
	row.Switches = len(topo.Switches())
	for _, sw := range d.Fabric.Switches() {
		row.Rules += len(sw.Table())
	}
	ap := topo.AccessPoints()[0]
	agent := d.Agent(ap.ClientID)
	if agent == nil {
		return row, fmt.Errorf("no agent for client %d", ap.ClientID)
	}
	constraints := []wire.FieldConstraint{
		{Field: wire.FieldIPDst, Value: uint64(ap.HostIP), Mask: 0xFFFFFFFF},
	}
	if _, err := agent.Query(wire.QueryIsolation, constraints, ""); err != nil {
		return row, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := agent.Query(wire.QueryIsolation, constraints, ""); err != nil {
			return row, err
		}
	}
	row.Mean = time.Since(start) / time.Duration(iters)
	if row.Switches > 0 {
		row.PerSwitch = row.Mean / time.Duration(row.Switches)
	}
	return row, nil
}

// MonitoringRow is one row of the E3 table.
type MonitoringRow struct {
	Topology      string
	Switches      int
	PollAllMean   time.Duration
	EventApply    time.Duration // mean passive-event ingestion latency
	EventsApplied uint64
}

// MonitoringOverhead measures E3: the cost of one full active poll of every
// switch, and the throughput of the passive event path (driven by a burst
// of provider flow-mods).
func MonitoringOverhead(nt NamedTopology, polls, churnRules int) (MonitoringRow, error) {
	row := MonitoringRow{Topology: nt.Name}
	topo, err := nt.Build()
	if err != nil {
		return row, err
	}
	d, err := deploy.New(topo, deploy.Options{SkipAgents: true})
	if err != nil {
		return row, err
	}
	defer d.Close()
	row.Switches = len(topo.Switches())

	start := time.Now()
	for i := 0; i < polls; i++ {
		if err := d.RVaaS.PollAll(5 * time.Second); err != nil {
			return row, err
		}
	}
	row.PollAllMean = time.Since(start) / time.Duration(polls)

	// Passive path: install/remove churnRules rules and wait until the
	// snapshot has absorbed every event.
	before := d.RVaaS.Stats().PassiveEvents
	sws := topo.Switches()
	startEv := time.Now()
	for i := 0; i < churnRules; i++ {
		sw := sws[i%len(sws)]
		e := openflow.FlowEntry{
			Priority: uint16(2000 + i%1000),
			Match: openflow.Match{Fields: []openflow.FieldMatch{
				{Field: wire.FieldIPDst, Value: uint64(0x0A000000 + i), Mask: 0xFFFFFFFF},
			}},
			Actions: []openflow.Action{openflow.Output(1)},
			Cookie:  uint64(0xE3000000 + i),
		}
		d.Fabric.Switch(sw).InstallDirect(e)
		d.Fabric.Switch(sw).RemoveDirect(e)
	}
	want := before + uint64(2*churnRules)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if d.RVaaS.Stats().PassiveEvents >= want {
			break
		}
		time.Sleep(time.Millisecond)
	}
	applied := d.RVaaS.Stats().PassiveEvents - before
	row.EventsApplied = applied
	if applied > 0 {
		row.EventApply = time.Since(startEv) / time.Duration(applied)
	}
	return row, nil
}

// MultiProviderChain builds a chain of n federated providers and measures
// one recursive FederatedReachable query across all of them (E9).
func MultiProviderChain(n int) (time.Duration, int, error) {
	if n < 1 {
		return 0, 0, fmt.Errorf("experiments: chain needs n >= 1")
	}
	type prov struct {
		d     *deploy.Deployment
		topo  *topology.Topology
		entry topology.Endpoint
	}
	provs := make([]prov, 0, n)
	defer func() {
		for _, p := range provs {
			p.d.Close()
		}
	}()
	for i := 0; i < n; i++ {
		topo, err := topology.Linear(3, nil)
		if err != nil {
			return 0, 0, err
		}
		d, err := deploy.New(topo, deploy.Options{SkipAgents: true})
		if err != nil {
			return 0, 0, err
		}
		provs = append(provs, prov{d: d, topo: topo})
	}
	// Destination host lives in the last provider.
	last := provs[n-1]
	dst := last.topo.AccessPoints()[2]

	// Wire provider i to provider i+1: egress at the free right-edge port
	// of the last switch (linear switch n has port 2 unwired), entry at
	// the free left-edge port of switch 1 (port 1).
	for i := 0; i < n; i++ {
		p := provs[i]
		if i > 0 {
			provs[i].entry = topology.Endpoint{Switch: 1, Port: 1}
		}
		if i == n-1 {
			continue
		}
		egress := topology.Endpoint{Switch: 3, Port: 2}
		// Route the destination prefix toward the egress.
		for _, sw := range p.topo.Switches() {
			var out topology.PortNo
			if sw == egress.Switch {
				out = egress.Port
			} else {
				path := p.topo.ShortestPath(sw, egress.Switch)
				if path == nil || len(path) < 2 {
					continue
				}
				out = p.topo.PortTowards(sw, path[1])
			}
			p.d.Fabric.Switch(sw).InstallDirect(openflow.FlowEntry{
				Priority: 150,
				Match: openflow.Match{Fields: []openflow.FieldMatch{
					{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF},
				}},
				Actions: []openflow.Action{openflow.Output(uint32(out))},
				Cookie:  0x9900 + uint64(i),
			})
		}
		if err := p.d.RVaaS.PollAll(2 * time.Second); err != nil {
			return 0, 0, err
		}
	}
	// In the last provider the default all-pairs tree reaches dst; resync
	// anyway for a fair measurement.
	if err := last.d.RVaaS.PollAll(2 * time.Second); err != nil {
		return 0, 0, err
	}
	for i := 0; i+1 < n; i++ {
		egress := topology.Endpoint{Switch: 3, Port: 2}
		provs[i].d.RVaaS.AddPeer(egress, provs[i+1].d.RVaaS, topology.Endpoint{Switch: 1, Port: 1})
	}

	src := provs[0].topo.AccessPoints()[0]
	constraints := []wire.FieldConstraint{
		{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF},
	}
	start := time.Now()
	eps := provs[0].d.RVaaS.FederatedReachable(src.Endpoint, constraints)
	elapsed := time.Since(start)
	found := 0
	for _, e := range eps {
		if e == dst.Endpoint.String() {
			found++
		}
	}
	if found == 0 {
		return elapsed, len(eps), fmt.Errorf("experiments: chain query missed the destination (%v)", eps)
	}
	return elapsed, len(eps), nil
}
