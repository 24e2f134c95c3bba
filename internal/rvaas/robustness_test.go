package rvaas_test

import (
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/openflow"
	"repro/internal/wire"
)

// TestMalformedQueryIgnored: garbage payloads on the magic port must not
// crash or wedge the controller.
func TestMalformedQueryIgnored(t *testing.T) {
	d := deployLinear(t, 2, deploy.Options{})
	src := d.Topology.AccessPoints()[0]
	garbage := &wire.Packet{
		EthDst: 0xFF, EthSrc: src.HostMAC, EthType: wire.EthTypeIPv4,
		IPSrc: src.HostIP, IPDst: wire.IPv4(10, 255, 255, 254),
		IPProto: wire.IPProtoUDP, TTL: 64, L4Src: 5000, L4Dst: wire.PortRVaaSV2,
		Payload: []byte{0xDE, 0xAD},
	}
	if err := d.Fabric.InjectFromHost(src.Endpoint, garbage); err != nil {
		t.Fatal(err)
	}
	// The controller must still serve real queries afterwards.
	agent := d.Agent(1)
	if _, err := agent.Query(wire.QueryTransferFunction, nil, ""); err != nil {
		t.Fatalf("controller wedged after garbage: %v", err)
	}
}

// TestUnsupportedQueryKind: unknown kinds get a signed "unsupported"
// response rather than silence.
func TestUnsupportedQueryKind(t *testing.T) {
	d := deployLinear(t, 2, deploy.Options{})
	agent := d.Agent(1)
	resp, err := agent.Query(wire.QueryKind(99), nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusUnsupported {
		t.Errorf("status = %s", resp.Status)
	}
}

// TestAuthReplyFromUnregisteredClientIgnored: an attacker cannot satisfy an
// authentication round with an unregistered key.
func TestAuthReplyFromUnregisteredClientIgnored(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{})
	aps := d.Topology.AccessPoints()
	agent := d.Agent(1)

	// Detach the genuine destination agent so it cannot answer, then have
	// an attacker inject a bogus auth reply for the query nonce.
	if err := d.Fabric.AttachHost(aps[2].Endpoint, nil); err != nil {
		t.Fatal(err)
	}
	respCh := make(chan *wire.QueryResponse, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := agent.Query(wire.QueryReachableDestinations, ipConstraint(aps[2].HostIP), "")
		respCh <- resp
		errCh <- err
	}()
	// The query succeeds after the auth timeout, with zero replies.
	resp := <-respCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if resp.AuthRequested != 1 || resp.AuthReplied != 0 {
		t.Errorf("auth counters = %d/%d, want 0/1", resp.AuthReplied, resp.AuthRequested)
	}
	for _, e := range resp.Endpoints {
		if e.Authenticated {
			t.Error("endpoint authenticated without its agent")
		}
	}
}

// TestDualControllerCoexistence: the provider's own controller session and
// RVaaS's session coexist on the same switch; provider flow-mods through
// its session are observed by RVaaS's monitor.
func TestDualControllerCoexistence(t *testing.T) {
	d := deployLinear(t, 2, deploy.Options{SkipAgents: true})
	// Attach a second (provider) controller session to switch 1.
	ca := d.CA
	provIdent, err := openflow.NewIdentity("provider-controller")
	if err != nil {
		t.Fatal(err)
	}
	swIdent, err := openflow.NewIdentity("switch-1-second")
	if err != nil {
		t.Fatal(err)
	}
	provConn, swConn, err := openflow.ConnectSecure(provIdent, ca.Issue(provIdent), swIdent, ca.Issue(swIdent), ca.Pub)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Fabric.Switch(1).Serve(swConn); err != nil {
		t.Fatal(err)
	}
	defer provConn.Close()

	before := d.RVaaS.SnapshotID()
	fm := &openflow.FlowMod{
		XID: 1, Command: openflow.FlowAdd,
		Entry: openflow.FlowEntry{
			Priority: 7,
			Match: openflow.Match{Fields: []openflow.FieldMatch{
				{Field: wire.FieldIPDst, Value: 0x01020304, Mask: 0xFFFFFFFF},
			}},
			Actions: []openflow.Action{openflow.Output(1)},
			Cookie:  0xFEED,
		},
	}
	if err := provConn.Send(fm); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if d.RVaaS.SnapshotID() > before {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("RVaaS did not observe the provider session's flow-mod")
}
