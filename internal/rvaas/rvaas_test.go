package rvaas_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/deploy"
	"repro/internal/openflow"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/wire"
)

func deployLinear(t *testing.T, n int, opt deploy.Options) *deploy.Deployment {
	t.Helper()
	topo, err := topology.Linear(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func ipConstraint(ip uint32) []wire.FieldConstraint {
	return []wire.FieldConstraint{
		{Field: wire.FieldIPDst, Value: uint64(ip), Mask: 0xFFFFFFFF},
	}
}

func TestReachableDestinationsEndToEnd(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{})
	aps := d.Topology.AccessPoints()
	agent := d.Agent(1)

	resp, err := agent.Query(wire.QueryReachableDestinations, ipConstraint(aps[2].HostIP), "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Errorf("status = %s (%s)", resp.Status, resp.Detail)
	}
	// Exactly the destination access point should appear, authenticated.
	if len(resp.Endpoints) != 1 {
		t.Fatalf("endpoints = %+v", resp.Endpoints)
	}
	e := resp.Endpoints[0]
	if e.SwitchID != uint32(aps[2].Endpoint.Switch) || e.Port != uint32(aps[2].Endpoint.Port) {
		t.Errorf("endpoint = %+v, want %s", e, aps[2].Endpoint)
	}
	if !e.Authenticated {
		t.Error("endpoint did not authenticate in-band")
	}
	if resp.AuthRequested != 1 || resp.AuthReplied != 1 {
		t.Errorf("auth counters = %d/%d", resp.AuthReplied, resp.AuthRequested)
	}
}

func TestResponseCryptoIsVerified(t *testing.T) {
	d := deployLinear(t, 2, deploy.Options{})
	agent := d.Agent(1)
	// Agent.Query verifies signature + attestation internally; a successful
	// query therefore proves the crypto path. Additionally check the stats.
	if _, err := agent.Query(wire.QueryTransferFunction, nil, ""); err != nil {
		t.Fatal(err)
	}
	if d.RVaaS.Stats().ResponsesSigned == 0 {
		t.Error("no responses signed")
	}
}

// TestFigure12MessageFlow reproduces the exact message sequence of the
// paper's Figures 1 and 2: (1) integrity request packet, (2) OpenFlow
// Packet-In, (3) OpenFlow Packet-Out auth requests toward relevant clients,
// (4) auth reply packets, intercepted again as Packet-Ins, and finally the
// signed integrity reply delivered to the requester.
func TestFigure12MessageFlow(t *testing.T) {
	topo, err := topology.Linear(4, []uint64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{TenantRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	agent := d.Agent(1)

	before := d.RVaaS.Stats()
	resp, err := agent.Query(wire.QueryIsolation, ipConstraint(topo.AccessPoints()[0].HostIP), "")
	if err != nil {
		t.Fatal(err)
	}
	after := d.RVaaS.Stats()

	// Fig. 1 step 2: the integrity request arrived as a Packet-In.
	if after.PacketIns <= before.PacketIns {
		t.Error("no packet-in recorded for the integrity request")
	}
	// Fig. 1 step 3/4: auth requests dispatched to the relevant clients
	// (the three partner access points of client 1).
	if got := after.AuthRequested - before.AuthRequested; got != 3 {
		t.Errorf("auth requests = %d, want 3", got)
	}
	// Fig. 2: all auth replies collected and the signed reply delivered.
	if got := after.AuthReceived - before.AuthReceived; got != 3 {
		t.Errorf("auth replies = %d, want 3", got)
	}
	if resp.Status != wire.StatusOK {
		t.Errorf("isolation status = %s (%s)", resp.Status, resp.Detail)
	}
	if resp.AuthRequested != 3 || resp.AuthReplied != 3 {
		t.Errorf("response auth counters = %d/%d", resp.AuthReplied, resp.AuthRequested)
	}
	for _, e := range resp.Endpoints {
		if !e.Authenticated {
			t.Errorf("endpoint %+v not authenticated", e)
		}
	}
}

func TestIsolationDetectsJoinAttack(t *testing.T) {
	topo, err := topology.Linear(4, []uint64{1, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{TenantRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	aps := topo.AccessPoints()
	victim := aps[0] // client 1 on switch 1
	agent := d.Agent(1)

	// Clean network: isolation holds.
	resp, err := agent.Query(wire.QueryIsolation, ipConstraint(victim.HostIP), "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("clean isolation = %s (%s)", resp.Status, resp.Detail)
	}

	// The compromised controller secretly grants client 2's port (an
	// endpoint NOT owned by client 1) access to client 1's network — a join
	// attack.
	atk := &controlplane.JoinAttack{
		VictimIP:   victim.HostIP,
		SecretAP:   aps[2].Endpoint,
		AttackerIP: wire.IPv4(172, 16, 6, 6),
	}
	if err := atk.Launch(d.Provider); err != nil {
		t.Fatal(err)
	}
	// Force a deterministic snapshot sync before querying.
	if err := d.RVaaS.PollAll(time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err = agent.Query(wire.QueryIsolation, ipConstraint(victim.HostIP), "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusViolation {
		t.Fatalf("join attack not detected: %s (%s)", resp.Status, resp.Detail)
	}
	if !strings.Contains(resp.Detail, "isolation broken") {
		t.Errorf("detail = %q", resp.Detail)
	}

	// Revert: isolation holds again.
	if err := atk.Revert(d.Provider); err != nil {
		t.Fatal(err)
	}
	if err := d.RVaaS.PollAll(time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err = agent.Query(wire.QueryIsolation, ipConstraint(victim.HostIP), "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Errorf("post-revert isolation = %s (%s)", resp.Status, resp.Detail)
	}
}

func TestReachableDetectsExfiltration(t *testing.T) {
	topo, err := topology.Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	aps := topo.AccessPoints()
	sender, victim := aps[0], aps[3]
	agent := d.Agent(sender.ClientID)

	countEndpoints := func() (total, unregistered int) {
		resp, err := agent.Query(wire.QueryReachableDestinations, ipConstraint(victim.HostIP), "")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range resp.Endpoints {
			if e.Detail == "unregistered-port" {
				unregistered++
			}
		}
		return len(resp.Endpoints), unregistered
	}
	total, unreg := countEndpoints()
	if total != 1 || unreg != 0 {
		t.Fatalf("clean network: %d endpoints (%d unregistered)", total, unreg)
	}

	// Find a free edge port on the victim's switch for the tap.
	var tap topology.Endpoint
	for p := topology.PortNo(1); p <= topo.PortCount(victim.Endpoint.Switch); p++ {
		ep := topology.Endpoint{Switch: victim.Endpoint.Switch, Port: p}
		if !topo.IsInternal(ep) {
			if _, used := topo.AccessPointAt(ep); !used {
				tap = ep
				break
			}
		}
	}
	if tap == (topology.Endpoint{}) {
		t.Fatal("no free tap port")
	}
	atk := &controlplane.Exfiltration{VictimIP: victim.HostIP, Tap: tap}
	if err := atk.Launch(d.Provider); err != nil {
		t.Fatal(err)
	}
	if err := d.RVaaS.PollAll(time.Second); err != nil {
		t.Fatal(err)
	}
	total, unreg = countEndpoints()
	if total != 2 || unreg != 1 {
		t.Errorf("exfiltration not visible: %d endpoints (%d unregistered)", total, unreg)
	}
}

func TestGeoQueryAndViolation(t *testing.T) {
	regions := []topology.Region{"eu-west", "offshore", "us-east"}
	topo, err := topology.MultiRegionWAN(regions, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	aps := topo.AccessPoints()
	var src, dst topology.AccessPoint
	for _, ap := range aps {
		switch topo.RegionOf(ap.Endpoint.Switch) {
		case "eu-west":
			src = ap
		case "us-east":
			dst = ap
		}
	}
	agent := d.Agent(src.ClientID)

	query := func() *wire.QueryResponse {
		resp, err := agent.Query(wire.QueryGeoRegions, ipConstraint(dst.HostIP), "offshore")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := query()
	if resp.Status != wire.StatusOK {
		t.Fatalf("clean geo = %s (%s), regions %v", resp.Status, resp.Detail, resp.Regions)
	}
	for _, r := range resp.Regions {
		if r == "offshore" {
			t.Fatalf("clean route already offshore: %v", resp.Regions)
		}
	}

	var offshoreSw topology.SwitchID
	for _, sw := range topo.Switches() {
		if topo.RegionOf(sw) == "offshore" {
			offshoreSw = sw
			break
		}
	}
	atk := &controlplane.GeoViolation{SrcIP: src.HostIP, DstIP: dst.HostIP, Via: offshoreSw}
	if err := atk.Launch(d.Provider); err != nil {
		t.Fatal(err)
	}
	if err := d.RVaaS.PollAll(time.Second); err != nil {
		t.Fatal(err)
	}
	resp = query()
	if resp.Status != wire.StatusViolation {
		t.Errorf("geo violation not detected: %s regions=%v", resp.Status, resp.Regions)
	}
}

func TestWaypointAvoidance(t *testing.T) {
	regions := []topology.Region{"eu-west", "offshore", "us-east"}
	topo, err := topology.MultiRegionWAN(regions, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	aps := topo.AccessPoints()
	var src, dst topology.AccessPoint
	for _, ap := range aps {
		switch topo.RegionOf(ap.Endpoint.Switch) {
		case "eu-west":
			src = ap
		case "us-east":
			dst = ap
		}
	}
	agent := d.Agent(src.ClientID)
	resp, err := agent.Query(wire.QueryWaypointAvoidance, ipConstraint(dst.HostIP), "offshore")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Errorf("clean avoidance = %s (%s)", resp.Status, resp.Detail)
	}
}

func TestNeutralityViolationDetected(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{})
	aps := d.Topology.AccessPoints()
	victim := aps[2]
	agent := d.Agent(1)

	constraints := append(ipConstraint(victim.HostIP),
		wire.FieldConstraint{Field: wire.FieldIPProto, Value: uint64(wire.IPProtoUDP), Mask: 0xFF},
		wire.FieldConstraint{Field: wire.FieldL4Dst, Value: 443, Mask: 0xFFFF},
	)
	resp, err := agent.Query(wire.QueryNeutrality, constraints, "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("clean neutrality = %s (%s)", resp.Status, resp.Detail)
	}

	atk := &controlplane.NeutralityViolation{VictimIP: victim.HostIP, L4Dst: 443}
	if err := atk.Launch(d.Provider); err != nil {
		t.Fatal(err)
	}
	if err := d.RVaaS.PollAll(time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err = agent.Query(wire.QueryNeutrality, constraints, "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusViolation {
		t.Errorf("neutrality violation not detected: %s (%s)", resp.Status, resp.Detail)
	}
}

// TestNeutralityMeterThrottleDetected covers the covert variant: the class
// is still delivered (reachability unchanged) but a class-specific meter
// starves it. Only the meter-table inspection exposes it (§IV-C).
func TestNeutralityMeterThrottleDetected(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{})
	aps := d.Topology.AccessPoints()
	victim := aps[2]
	agent := d.Agent(1)
	constraints := append(ipConstraint(victim.HostIP),
		wire.FieldConstraint{Field: wire.FieldIPProto, Value: uint64(wire.IPProtoUDP), Mask: 0xFF},
		wire.FieldConstraint{Field: wire.FieldL4Dst, Value: 443, Mask: 0xFFFF},
	)
	resp, err := agent.Query(wire.QueryNeutrality, constraints, "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("clean: %s (%s)", resp.Status, resp.Detail)
	}

	atk := &controlplane.MeterThrottle{VictimIP: victim.HostIP, L4Dst: 443, RateKbps: 8}
	if err := atk.Launch(d.Provider); err != nil {
		t.Fatal(err)
	}
	if err := d.RVaaS.PollAll(time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err = agent.Query(wire.QueryNeutrality, constraints, "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusViolation {
		t.Fatalf("meter throttle not detected: %s (%s)", resp.Status, resp.Detail)
	}
	if !strings.Contains(resp.Detail, "meter") {
		t.Errorf("detail should name the meter: %q", resp.Detail)
	}

	// Revert restores neutrality.
	if err := atk.Revert(d.Provider); err != nil {
		t.Fatal(err)
	}
	if err := d.RVaaS.PollAll(time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err = agent.Query(wire.QueryNeutrality, constraints, "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Errorf("post-revert: %s (%s)", resp.Status, resp.Detail)
	}
}

func TestPathLengthQuery(t *testing.T) {
	d := deployLinear(t, 5, deploy.Options{})
	aps := d.Topology.AccessPoints()
	agent := d.Agent(1)
	// Path from switch 1 to switch 5 traverses 5 switches.
	resp, err := agent.Query(wire.QueryPathLength, ipConstraint(aps[4].HostIP), "5")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Errorf("within bound: %s (%s)", resp.Status, resp.Detail)
	}
	resp, err = agent.Query(wire.QueryPathLength, ipConstraint(aps[4].HostIP), "3")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusViolation {
		t.Errorf("beyond bound: %s (%s)", resp.Status, resp.Detail)
	}
}

func TestTransferFunctionQuery(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{})
	agent := d.Agent(1)
	resp, err := agent.Query(wire.QueryTransferFunction, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK || len(resp.Endpoints) == 0 {
		t.Errorf("transfer function: %s, %d endpoints", resp.Status, len(resp.Endpoints))
	}
}

func TestPassiveMonitoringTracksChanges(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{})
	before := d.RVaaS.SnapshotID()
	// Provider reprograms the network; monitor events must update RVaaS.
	d.Provider.UninstallDestination(d.Topology.AccessPoints()[2].HostIP)
	waitUntil(t, time.Second, func() bool { return d.RVaaS.SnapshotID() > before })
	if got := d.RVaaS.Stats().PassiveEvents; got == 0 {
		t.Error("no passive events recorded")
	}
}

// selfRulesMissing reads one switch's SelfRulesMissing from SwitchSessions.
func selfRulesMissing(d *deploy.Deployment, sw topology.SwitchID) int {
	for _, ss := range d.RVaaS.SwitchSessions() {
		if ss.Switch == sw {
			return ss.SelfRulesMissing
		}
	}
	return -1
}

func TestSelfRuleTamperDetection(t *testing.T) {
	d := deployLinear(t, 2, deploy.Options{})
	waitUntil(t, time.Second, func() bool { return selfRulesMissing(d, 1) == 0 && selfRulesMissing(d, 2) == 0 })
	// The compromised controller deletes RVaaS's query interception rule on
	// switch 1.
	sw := d.Fabric.Switch(1)
	for _, e := range sw.Table() {
		if e.Cookie&rvaas.CookieRVaaS == rvaas.CookieRVaaS {
			sw.RemoveDirect(e)
			break
		}
	}
	waitUntil(t, time.Second, func() bool { return selfRulesMissing(d, 1) == 1 })
	if got := selfRulesMissing(d, 2); got != 0 {
		t.Errorf("untouched switch 2 reports %d self-rules missing", got)
	}
}

// TestSelfRuleCheckIgnoresForgedCookie: the provider deletes RVaaS's
// interception rule and installs two forwarding rules carrying RVaaS's
// cookie. Counting cookie-marked entries reads that table as intact;
// comparing whole entries reports the one rule missing.
func TestSelfRuleCheckIgnoresForgedCookie(t *testing.T) {
	d := deployLinear(t, 2, deploy.Options{SkipAgents: true})
	waitUntil(t, time.Second, func() bool { return selfRulesMissing(d, 1) == 0 })
	for _, e := range d.Fabric.Switch(1).Table() {
		if e.Cookie&rvaas.CookieRVaaS == rvaas.CookieRVaaS {
			d.Provider.RemoveEntry(1, e)
		}
	}
	dst := d.Topology.AccessPoints()[1]
	for i, port := range []uint32{1, 2} {
		d.Provider.InstallEntry(1, openflow.FlowEntry{
			Priority: 100,
			Match: openflow.Match{Fields: []openflow.FieldMatch{
				{Field: wire.FieldIPDst, Value: uint64(dst.HostIP) + uint64(i), Mask: 0xFFFFFFFF},
			}},
			Actions: []openflow.Action{openflow.Output(port)},
			Cookie:  rvaas.CookieRVaaS | 7,
		})
	}
	forged := func() int {
		n := 0
		for _, e := range d.Fabric.Switch(1).Table() {
			if e.Cookie&rvaas.CookieRVaaS == rvaas.CookieRVaaS {
				n++
			}
		}
		return n
	}
	waitUntil(t, time.Second, func() bool { return forged() == 2 && selfRulesMissing(d, 1) == 1 })
	if err := d.RVaaS.PollAll(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := selfRulesMissing(d, 1); got != 1 {
		t.Fatalf("forged-cookie table: %d self-rules missing, want 1", got)
	}
}

func TestFlapEvidenceViaPolling(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{})
	victim := d.Topology.AccessPoints()[2]
	flap := &controlplane.FlapAttack{Inner: &controlplane.NeutralityViolation{VictimIP: victim.HostIP, L4Dst: 443}}

	if err := d.RVaaS.PollAll(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := flap.Launch(d.Provider); err != nil {
		t.Fatal(err)
	}
	if err := d.RVaaS.PollAll(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := flap.Revert(d.Provider); err != nil {
		t.Fatal(err)
	}
	if err := d.RVaaS.PollAll(time.Second); err != nil {
		t.Fatal(err)
	}
	churn := d.RVaaS.FlapEvidence()
	found := false
	for _, c := range churn {
		if c.Entry.Cookie&0xBAD0_0000 == 0xBAD0_0000 {
			found = true
		}
	}
	if !found {
		t.Errorf("flap attack left no churn evidence (%d events)", len(churn))
	}
}

func TestReachingSourcesListsPeers(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{})
	aps := d.Topology.AccessPoints()
	agent := d.Agent(1)
	resp, err := agent.Query(wire.QueryReachingSources, ipConstraint(aps[0].HostIP), "")
	if err != nil {
		t.Fatal(err)
	}
	// With destination-only routing, both other access points can reach
	// client 1 — and so can the two unwired chain-end ports (an attacker
	// plugging in there could spoof any source). RVaaS must report all
	// four; only the registered clients authenticate.
	var known, unregistered, authed int
	for _, e := range resp.Endpoints {
		if e.Detail == "unregistered-port" {
			unregistered++
		} else {
			known++
		}
		if e.Authenticated {
			authed++
		}
	}
	if known != 2 || unregistered != 2 || authed != 2 {
		t.Errorf("reaching sources: known=%d unregistered=%d authed=%d (%+v)",
			known, unregistered, authed, resp.Endpoints)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := deployLinear(t, 2, deploy.Options{})
	agent := d.Agent(1)
	if _, err := agent.Query(wire.QueryTransferFunction, nil, ""); err != nil {
		t.Fatal(err)
	}
	st := d.RVaaS.Stats()
	if st.QueriesServed == 0 || st.PacketIns == 0 || st.ResponsesSigned == 0 {
		t.Errorf("stats: %+v", st)
	}
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !cond() {
		t.Fatal("condition not met before timeout")
	}
}
