package procplane

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/labspec"
	"repro/internal/leakcheck"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

func validManifest() *Manifest {
	return &Manifest{
		Lab: "lab", Group: "edge", Kind: KindSwitchd,
		Token: "t0k3n", Trunk: "127.0.0.1:1", Switches: []uint32{1, 2},
	}
}

func TestManifestValidate(t *testing.T) {
	if err := validManifest().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Manifest)
		want string
	}{
		{"no lab", func(m *Manifest) { m.Lab = " " }, "lab"},
		{"no group", func(m *Manifest) { m.Group = "" }, "group"},
		{"no token", func(m *Manifest) { m.Token = "" }, "token"},
		{"no trunk", func(m *Manifest) { m.Trunk = "" }, "trunk"},
		{"no kind", func(m *Manifest) { m.Kind = "" }, "kind"},
		{"bad kind", func(m *Manifest) { m.Kind = "routerd" }, "routerd"},
		{"switchd without switches", func(m *Manifest) { m.Switches = nil }, "switchd"},
		{"switchd with agents", func(m *Manifest) { m.Agents = []uint64{7} }, "agents"},
		{"agentd without agents", func(m *Manifest) { m.Kind = KindAgentd; m.Switches = nil }, "agentd"},
	}
	for _, tc := range cases {
		m := validManifest()
		tc.mut(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/edge.json"
	m := validManifest()
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Group != m.Group || got.Token != m.Token || len(got.Switches) != 2 {
		t.Errorf("loaded manifest = %+v, want %+v", got, m)
	}
	if _, err := ParseManifest([]byte(`{"lab":"x"}`)); err == nil {
		t.Error("incomplete manifest accepted")
	}
}

func TestFrameAndFlowModCodecs(t *testing.T) {
	ep := topology.Endpoint{Switch: 3, Port: 2}
	pkt := &wire.Packet{EthType: wire.EthTypeIPv4, IPSrc: 0x0a000001, IPDst: 0x0a000002, TTL: 17}
	gotEP, gotPkt, err := DecodeFrame(EncodeFrame(ep, pkt))
	if err != nil {
		t.Fatal(err)
	}
	if gotEP != ep || gotPkt.IPDst != pkt.IPDst || gotPkt.TTL != 17 {
		t.Errorf("frame round trip = %v %+v", gotEP, gotPkt)
	}
	if _, _, err := DecodeFrame([]byte{1, 2, 3}); err == nil {
		t.Error("short frame accepted")
	}

	mod := &openflow.FlowMod{Command: openflow.FlowAdd, Entry: openflow.FlowEntry{
		Priority: 9,
		Match:    openflow.Match{Fields: []openflow.FieldMatch{{Field: wire.FieldIPDst, Value: 42, Mask: ^uint64(0)}}},
		Actions:  []openflow.Action{openflow.Output(2)},
	}}
	gotSW, gotMod, err := DecodeFlowMod(EncodeFlowMod(7, mod))
	if err != nil {
		t.Fatal(err)
	}
	if gotSW != 7 || gotMod.Command != openflow.FlowAdd || gotMod.Entry.Priority != 9 {
		t.Errorf("flowmod round trip = %d %+v", gotSW, gotMod)
	}
	if _, _, err := DecodeFlowMod([]byte{0, 0}); err == nil {
		t.Error("short flowmod accepted")
	}
}

// TestGoldenTrunkPayloads locks the trunk's binary payloads and its frame
// header byte-for-byte.
func TestGoldenTrunkPayloads(t *testing.T) {
	pkt := &wire.Packet{EthDst: 0x020000000002, EthSrc: 0x020000000001, EthType: wire.EthTypeIPv4,
		IPSrc: wire.IPv4(10, 0, 0, 1), IPDst: wire.IPv4(10, 0, 0, 2), IPProto: wire.IPProtoUDP, TTL: 64,
		L4Src: 1000, L4Dst: 2000, Payload: []byte("hi")}
	if got := fmt.Sprintf("%x", EncodeFrame(topology.Endpoint{Switch: 3, Port: 4}, pkt)); got != "000000030000000402000000000202000000000108004500001e00000000401166cd0a0000010a00000203e807d0000a00006869" {
		t.Errorf("frame payload drifted: %s", got)
	}
	mod := &openflow.FlowMod{XID: 5, Command: openflow.FlowAdd, Entry: openflow.FlowEntry{Priority: 10,
		Match: openflow.Match{InPort: openflow.AnyPort}, Actions: []openflow.Action{openflow.Output(2)}, Cookie: 7}}
	if got := fmt.Sprintf("%x", EncodeFlowMod(7, mod)); got != "000000077a050000002d0000000501000affffffff00000001010000000200000000000000000000000000000000070000000000000000" {
		t.Errorf("flowmod payload drifted: %s", got)
	}

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go NewConn(a).Write(MsgBeat, []byte{1, 2})
	raw := make([]byte, 7)
	if _, err := io.ReadFull(b, raw); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", raw); got != "00000003090102" {
		t.Errorf("trunk frame drifted: %s", got)
	}
}

func TestConnFraming(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	go func() {
		ca.WriteJSON(MsgJoin, &JoinRequest{Lab: "lab", Group: "g", Token: "t", Kind: KindSwitchd})
		ca.Write(MsgBeat, nil)
	}()
	typ, payload, err := cb.Read()
	if err != nil || typ != MsgJoin {
		t.Fatalf("first read = %d, %v", typ, err)
	}
	var jr JoinRequest
	if err := json.Unmarshal(payload, &jr); err != nil || jr.Group != "g" {
		t.Fatalf("join payload = %+v, %v", jr, err)
	}
	typ, payload, err = cb.Read()
	if err != nil || typ != MsgBeat || len(payload) != 0 {
		t.Fatalf("beat read = %d %d bytes, %v", typ, len(payload), err)
	}
	// An oversized write is refused without poisoning the stream.
	if err := ca.Write(MsgFrameHost, make([]byte, maxTrunkMsg)); err == nil {
		t.Error("oversized trunk message accepted")
	}
}

// linearSpec is a two-switch lab whose spec JSON joins acks carry.
func linearSpec(t *testing.T) (*labspec.Spec, []byte) {
	t.Helper()
	spec := &labspec.Spec{
		Name:     "lab",
		Topology: labspec.TopologySpec{Generator: "linear", Size: 2},
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, b
}

// fakeController accepts one trunk join for group "edge"/token "t0k3n",
// issues certificates for the presented CSR keys and acks with the given
// spec and its UDP attach listener.
type fakeController struct {
	ln    net.Listener
	mux   *openflow.UDPMux
	ca    *openflow.CA
	ctlID *openflow.Identity

	trunk chan *Conn
	joins chan JoinRequest
}

func newFakeController(t *testing.T, specJSON []byte, extraAck func(*JoinAck)) *fakeController {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux, err := openflow.ListenUDPMux("")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := openflow.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	ctlID, err := openflow.NewIdentity("rvaas")
	if err != nil {
		t.Fatal(err)
	}
	fc := &fakeController{
		ln: ln, mux: mux, ca: ca, ctlID: ctlID,
		trunk: make(chan *Conn, 1), joins: make(chan JoinRequest, 1),
	}
	t.Cleanup(func() { ln.Close(); mux.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		tc := NewConn(nc)
		typ, payload, err := tc.Read()
		if err != nil || typ != MsgJoin {
			tc.Close()
			return
		}
		var jr JoinRequest
		if err := json.Unmarshal(payload, &jr); err != nil {
			tc.Close()
			return
		}
		fc.joins <- jr
		if jr.Token != "t0k3n" {
			tc.WriteJSON(MsgJoinAck, &JoinAck{Error: "bad token"})
			tc.Close()
			return
		}
		ack := JoinAck{
			Spec:       specJSON,
			AttachAddr: mux.Addr().String(),
			CAPub:      ca.Pub,
			Certs:      make(map[uint32]openflow.Certificate),
		}
		for sw, pub := range jr.SwitchKeys {
			ack.Certs[sw] = ca.IssueKey(fmt.Sprintf("switch-%d", sw), pub)
		}
		if extraAck != nil {
			extraAck(&ack)
		}
		tc.WriteJSON(MsgJoinAck, &ack)
		fc.trunk <- tc
	}()
	return fc
}

// acceptSecure accepts one switch control channel on the attach listener.
func (fc *fakeController) acceptSecure(t *testing.T) *openflow.SecureConn {
	t.Helper()
	conn, err := fc.mux.Accept()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := openflow.SecureServer(conn, fc.ctlID, fc.ca.Issue(fc.ctlID), fc.ca.Pub)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunSwitchdHostsSwitches drives the full child-side bring-up against a
// fake controller: CSR join, secure attach of both switches over the UDP
// mux, trunk flow programming, and cross-seam frame hand-off back onto the
// trunk.
func TestRunSwitchdHostsSwitches(t *testing.T) {
	leakcheck.Check(t)
	_, specJSON := linearSpec(t)
	fc := newFakeController(t, specJSON, nil)

	m := &Manifest{
		Lab: "lab", Group: "edge", Kind: KindSwitchd, Token: "t0k3n",
		Trunk: fc.ln.Addr().String(), Switches: []uint32{1},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- RunSwitchd(ctx, m, t.Logf) }()

	jr := <-fc.joins
	if jr.Kind != KindSwitchd || jr.Group != "edge" || len(jr.SwitchKeys) != 1 {
		t.Fatalf("join = %+v", jr)
	}
	sc := fc.acceptSecure(t)
	defer sc.Close()
	if sc.PeerName() != "switch-1" {
		t.Fatalf("attach peer = %q, want switch-1", sc.PeerName())
	}
	tc := <-fc.trunk
	defer tc.Close()

	// Program a rule over the trunk and observe it on the secure channel —
	// the verification plane's view of the child-hosted switch.
	topo, err := topology.Linear(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	aps := topo.AccessPoints()
	out := topo.PortTowards(1, 2)
	mod := &openflow.FlowMod{Command: openflow.FlowAdd, Entry: openflow.FlowEntry{
		Priority: 100,
		Match:    openflow.Match{Fields: []openflow.FieldMatch{{Field: wire.FieldIPDst, Value: uint64(aps[1].HostIP), Mask: 0xFFFFFFFF}}},
		Actions:  []openflow.Action{openflow.Output(uint32(out))},
	}}
	if err := tc.Write(MsgFlowMod, EncodeFlowMod(1, mod)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := sc.Send(&openflow.StatsRequest{XID: 1}); err != nil {
			t.Fatal(err)
		}
		msg, err := sc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if reply, ok := msg.(*openflow.StatsReply); ok && len(reply.Entries) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flowmod never appeared in switch stats")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A frame injected at switch 1's access port must cross the process
	// seam: the child hands it to the trunk addressed at switch 2's ingress.
	pkt := &wire.Packet{
		EthType: wire.EthTypeIPv4, IPSrc: aps[0].HostIP, IPDst: aps[1].HostIP,
		EthSrc: aps[0].HostMAC, TTL: 64,
	}
	if err := tc.Write(MsgFrameInject, EncodeFrame(aps[0].Endpoint, pkt)); err != nil {
		t.Fatal(err)
	}
	for {
		typ, payload, err := tc.Read()
		if err != nil {
			t.Fatalf("trunk read: %v", err)
		}
		if typ == MsgBeat {
			continue
		}
		if typ != MsgFramePort {
			t.Fatalf("trunk message type = %d, want frame hand-off", typ)
		}
		ep, got, err := DecodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if ep.Switch != 2 || got.IPDst != aps[1].HostIP || got.TTL != 63 {
			t.Fatalf("hand-off = %v %+v", ep, got)
		}
		break
	}

	// Cancelled context is a clean exit, not an error.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("RunSwitchd = %v, want nil after cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunSwitchd did not exit on cancel")
	}
}

func TestRunSwitchdJoinRefused(t *testing.T) {
	leakcheck.Check(t)
	_, specJSON := linearSpec(t)
	fc := newFakeController(t, specJSON, nil)
	m := &Manifest{
		Lab: "lab", Group: "edge", Kind: KindSwitchd, Token: "wrong",
		Trunk: fc.ln.Addr().String(), Switches: []uint32{1},
	}
	err := RunSwitchd(context.Background(), m, nil)
	if err == nil || !strings.Contains(err.Error(), "bad token") {
		t.Fatalf("RunSwitchd = %v, want join refusal", err)
	}
}

// TestRunAgentdRegisters drives the agentd join + key registration exchange
// and a clean cancel (the in-band query path needs a live RVaaS and is
// covered by the deploy integration tests).
func TestRunAgentdRegisters(t *testing.T) {
	leakcheck.Check(t)
	spec := &labspec.Spec{
		Name:     "lab",
		Topology: labspec.TopologySpec{Generator: "star", Size: 3},
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	meas := enclave.MeasurementOf([]byte("rvaas"))
	serverID, err := openflow.NewIdentity("server")
	if err != nil {
		t.Fatal(err)
	}
	fc := newFakeController(t, specJSON, func(ack *JoinAck) {
		ack.PlatformRoot = platform.RootKey()
		ack.Measurement = meas[:]
		ack.ServerKey = serverID.Pub
	})

	topo, err := spec.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	clientID := topo.AccessPoints()[0].ClientID
	m := &Manifest{
		Lab: "lab", Group: "clients", Kind: KindAgentd, Token: "t0k3n",
		Trunk: fc.ln.Addr().String(), Agents: []uint64{clientID},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- RunAgentd(ctx, m, t.Logf) }()

	jr := <-fc.joins
	if jr.Kind != KindAgentd || len(jr.Agents) != 1 || jr.Agents[0] != clientID {
		t.Fatalf("join = %+v", jr)
	}
	tc := <-fc.trunk
	defer tc.Close()
	for {
		typ, payload, err := tc.Read()
		if err != nil {
			t.Fatalf("trunk read: %v", err)
		}
		if typ == MsgBeat {
			continue
		}
		if typ != MsgRegister {
			t.Fatalf("trunk message type = %d, want register", typ)
		}
		var reg Register
		if err := json.Unmarshal(payload, &reg); err != nil {
			t.Fatal(err)
		}
		if len(reg.Keys) != 1 || len(reg.Keys[clientID]) == 0 {
			t.Fatalf("register keys = %+v", reg.Keys)
		}
		break
	}
	if err := tc.WriteJSON(MsgRegisterAck, &RegisterAck{}); err != nil {
		t.Fatal(err)
	}
	// Beats keep flowing after registration: the child is live.
	tc.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, _, err := tc.Read()
	if err != nil || typ != MsgBeat {
		t.Fatalf("post-register read = %d, %v, want a beat", typ, err)
	}
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("RunAgentd = %v, want nil after cancel", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunAgentd did not exit on cancel")
	}
}
