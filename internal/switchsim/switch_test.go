package switchsim

import (
	"sync"
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// collector records transmitted frames per port.
type collector struct {
	mu     sync.Mutex
	frames map[topology.PortNo][]*wire.Packet
}

func newCollector() *collector {
	return &collector{frames: make(map[topology.PortNo][]*wire.Packet)}
}

func (c *collector) transmit(port topology.PortNo, pkt *wire.Packet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames[port] = append(c.frames[port], pkt)
}

func (c *collector) count(port topology.PortNo) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames[port])
}

func (c *collector) get(port topology.PortNo, i int) *wire.Packet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames[port][i]
}

func udpTo(ip uint32) *wire.Packet {
	return &wire.Packet{
		EthDst: 2, EthSrc: 1, EthType: wire.EthTypeIPv4,
		IPSrc: wire.IPv4(10, 0, 0, 1), IPDst: ip,
		IPProto: wire.IPProtoUDP, TTL: 64, L4Src: 1000, L4Dst: 2000,
	}
}

func fwdEntry(prio uint16, dst uint32, outPort uint32) openflow.FlowEntry {
	return openflow.FlowEntry{
		Priority: prio,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(dst), Mask: 0xFFFFFFFF},
		}},
		Actions: []openflow.Action{openflow.Output(outPort)},
		Cookie:  uint64(prio),
	}
}

func TestProcessPacketForwarding(t *testing.T) {
	col := newCollector()
	sw := New(1, 4, col.transmit)
	dst := wire.IPv4(10, 0, 1, 1)
	sw.InstallDirect(fwdEntry(10, dst, 3))

	sw.ProcessPacket(1, udpTo(dst), 0)
	if col.count(3) != 1 {
		t.Fatalf("port 3 frames = %d, want 1", col.count(3))
	}
	// Unmatched packet dropped.
	sw.ProcessPacket(1, udpTo(wire.IPv4(99, 0, 0, 1)), 0)
	if got := sw.Stats().Dropped; got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
}

func TestPrioritySelection(t *testing.T) {
	col := newCollector()
	sw := New(1, 4, col.transmit)
	dst := wire.IPv4(10, 0, 1, 1)
	sw.InstallDirect(fwdEntry(1, dst, 2))
	sw.InstallDirect(fwdEntry(100, dst, 4)) // higher priority wins
	sw.ProcessPacket(1, udpTo(dst), 0)
	if col.count(4) != 1 || col.count(2) != 0 {
		t.Errorf("frames: port4=%d port2=%d", col.count(4), col.count(2))
	}
}

func TestSetFieldRewrite(t *testing.T) {
	col := newCollector()
	sw := New(1, 4, col.transmit)
	dst := wire.IPv4(10, 0, 1, 1)
	newDst := wire.IPv4(10, 9, 9, 9)
	sw.InstallDirect(openflow.FlowEntry{
		Priority: 5,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(dst), Mask: 0xFFFFFFFF},
		}},
		Actions: []openflow.Action{
			openflow.SetField(wire.FieldIPDst, uint64(newDst)),
			openflow.Output(2),
		},
	})
	sw.ProcessPacket(1, udpTo(dst), 0)
	if col.count(2) != 1 {
		t.Fatal("no frame on port 2")
	}
	if got := col.get(2, 0).IPDst; got != newDst {
		t.Errorf("rewritten dst = %s", wire.IPString(got))
	}
}

func TestFloodExcludesIngress(t *testing.T) {
	col := newCollector()
	sw := New(1, 4, col.transmit)
	sw.InstallDirect(openflow.FlowEntry{
		Priority: 1,
		Match:    openflow.Match{InPort: openflow.AnyPort},
		Actions:  []openflow.Action{openflow.Output(openflow.FloodPort)},
	})
	sw.ProcessPacket(2, udpTo(1), 0)
	if col.count(2) != 0 {
		t.Error("flood leaked to ingress port")
	}
	for _, p := range []topology.PortNo{1, 3, 4} {
		if col.count(p) != 1 {
			t.Errorf("port %d frames = %d, want 1", p, col.count(p))
		}
	}
}

func TestInPortMatch(t *testing.T) {
	col := newCollector()
	sw := New(1, 4, col.transmit)
	sw.InstallDirect(openflow.FlowEntry{
		Priority: 1,
		Match:    openflow.Match{InPort: 2},
		Actions:  []openflow.Action{openflow.Output(3)},
	})
	sw.ProcessPacket(1, udpTo(1), 0)
	if col.count(3) != 0 {
		t.Error("in-port filter ignored")
	}
	sw.ProcessPacket(2, udpTo(1), 0)
	if col.count(3) != 1 {
		t.Error("in-port match missed")
	}
}

// controllerHarness wires a secure channel to a switch and returns the
// controller-side connection.
func controllerHarness(t *testing.T, sw *Switch) *openflow.SecureConn {
	t.Helper()
	ca, err := openflow.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	swID, err := openflow.NewIdentity("switch")
	if err != nil {
		t.Fatal(err)
	}
	ctlID, err := openflow.NewIdentity("controller")
	if err != nil {
		t.Fatal(err)
	}
	ctlConn, swConn, err := openflow.ConnectSecure(ctlID, ca.Issue(ctlID), swID, ca.Issue(swID), ca.Pub)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Serve(swConn); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sw.Close)
	return ctlConn
}

// recvType waits for a message of the wanted type, skipping others.
func recvType(t *testing.T, conn *openflow.SecureConn, want openflow.MsgType) openflow.Message {
	t.Helper()
	deadline := time.After(2 * time.Second)
	result := make(chan openflow.Message, 1)
	errs := make(chan error, 1)
	go func() {
		for {
			m, err := conn.Recv()
			if err != nil {
				errs <- err
				return
			}
			if m.Type() == want {
				result <- m
				return
			}
		}
	}()
	select {
	case m := <-result:
		return m
	case err := <-errs:
		t.Fatalf("recv: %v", err)
	case <-deadline:
		t.Fatalf("timeout waiting for %s", want)
	}
	return nil
}

func TestControlFlowModAndStats(t *testing.T) {
	sw := New(7, 4, nil)
	conn := controllerHarness(t, sw)
	recvType(t, conn, openflow.TypeHello)

	dst := wire.IPv4(10, 0, 1, 1)
	if err := conn.Send(&openflow.FlowMod{XID: 1, Command: openflow.FlowAdd, Entry: fwdEntry(10, dst, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&openflow.StatsRequest{XID: 2}); err != nil {
		t.Fatal(err)
	}
	reply, ok := recvType(t, conn, openflow.TypeStatsReply).(*openflow.StatsReply)
	if !ok {
		t.Fatal("not a stats reply")
	}
	if reply.DatapathID != 7 || len(reply.Entries) != 1 || len(reply.Ports) != 4 {
		t.Errorf("stats reply: %+v", reply)
	}
	if reply.TableSeq != 1 {
		t.Errorf("table seq = %d, want 1", reply.TableSeq)
	}
}

func TestFlowMonitorEvents(t *testing.T) {
	sw := New(7, 4, nil)
	conn := controllerHarness(t, sw)
	recvType(t, conn, openflow.TypeHello)

	if err := conn.Send(&openflow.FlowMonitorRequest{XID: 1, MonitorID: 42}); err != nil {
		t.Fatal(err)
	}
	// Barrier to make sure the subscription is processed first.
	if err := conn.Send(&openflow.BarrierRequest{XID: 2}); err != nil {
		t.Fatal(err)
	}
	recvType(t, conn, openflow.TypeBarrierReply)

	dst := wire.IPv4(10, 0, 1, 1)
	sw.InstallDirect(fwdEntry(10, dst, 2))
	ev, ok := recvType(t, conn, openflow.TypeFlowMonitorReply).(*openflow.FlowMonitorReply)
	if !ok {
		t.Fatal("not a monitor reply")
	}
	if ev.Kind != openflow.FlowEventAdded || ev.MonitorID != 42 || ev.Seq != 1 {
		t.Errorf("event: %+v", ev)
	}

	sw.RemoveDirect(fwdEntry(10, dst, 2))
	ev2, ok := recvType(t, conn, openflow.TypeFlowMonitorReply).(*openflow.FlowMonitorReply)
	if !ok || ev2.Kind != openflow.FlowEventRemoved || ev2.Seq != 2 {
		t.Errorf("remove event: %+v", ev2)
	}

	// Three more monitoring controllers come and go (re-dials): an event
	// afterwards is sealed for the one live session only.
	for i := 0; i < 3; i++ {
		extra := controllerHarness(t, sw)
		if err := extra.Send(&openflow.FlowMonitorRequest{XID: 1, MonitorID: 43}); err != nil {
			t.Fatal(err)
		}
		if err := extra.Send(&openflow.BarrierRequest{XID: 2}); err != nil {
			t.Fatal(err)
		}
		recvType(t, extra, openflow.TypeBarrierReply)
		extra.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for sw.sessionCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions after 3 of 4 closed, want 1", sw.sessionCount())
		}
		time.Sleep(time.Millisecond)
	}
	before := sw.Stats().MonitorEvents
	sw.InstallDirect(fwdEntry(10, dst, 2))
	recvType(t, conn, openflow.TypeFlowMonitorReply)
	if got := sw.Stats().MonitorEvents - before; got != 1 {
		t.Errorf("one change counted %d monitor events, want 1", got)
	}
}

func TestPacketInOnControllerAction(t *testing.T) {
	sw := New(7, 4, nil)
	conn := controllerHarness(t, sw)
	recvType(t, conn, openflow.TypeHello)

	sw.InstallDirect(openflow.FlowEntry{
		Priority: 50,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldL4Dst, Value: uint64(wire.PortRVaaSV2), Mask: 0xFFFF},
		}},
		Actions: []openflow.Action{openflow.Output(openflow.ControllerPort)},
		Cookie:  0xBEEF,
	})
	q := udpTo(wire.IPv4(10, 255, 255, 254))
	q.L4Dst = wire.PortRVaaSV2
	sw.ProcessPacket(3, q, 0)

	pi, ok := recvType(t, conn, openflow.TypePacketIn).(*openflow.PacketIn)
	if !ok {
		t.Fatal("not a packet-in")
	}
	if pi.InPort != 3 || pi.Cookie != 0xBEEF || pi.Reason != openflow.ReasonAction {
		t.Errorf("packet-in: %+v", pi)
	}
	decoded, err := wire.Unmarshal(pi.Data)
	if err != nil || decoded.L4Dst != wire.PortRVaaSV2 {
		t.Errorf("packet-in payload: %v %+v", err, decoded)
	}
}

func TestPacketOutInjection(t *testing.T) {
	col := newCollector()
	sw := New(7, 4, col.transmit)
	conn := controllerHarness(t, sw)
	recvType(t, conn, openflow.TypeHello)

	pkt := udpTo(wire.IPv4(10, 0, 2, 2))
	if err := conn.Send(&openflow.PacketOut{
		XID: 5, InPort: openflow.AnyPort,
		Actions: []openflow.Action{openflow.Output(2)},
		Data:    pkt.Marshal(),
	}); err != nil {
		t.Fatal(err)
	}
	// Barrier guarantees the packet-out was processed.
	if err := conn.Send(&openflow.BarrierRequest{XID: 6}); err != nil {
		t.Fatal(err)
	}
	recvType(t, conn, openflow.TypeBarrierReply)
	if col.count(2) != 1 {
		t.Fatalf("port 2 frames = %d, want 1", col.count(2))
	}
}

func TestFlowAddReplacesSameMatch(t *testing.T) {
	sw := New(1, 4, nil)
	dst := wire.IPv4(10, 0, 1, 1)
	e := fwdEntry(10, dst, 2)
	sw.InstallDirect(e)
	e.Actions = []openflow.Action{openflow.Output(4)}
	sw.InstallDirect(e)
	table := sw.Table()
	if len(table) != 1 {
		t.Fatalf("table size = %d, want 1 (replace semantics)", len(table))
	}
	if table[0].Actions[0].Port != 4 {
		t.Error("replacement did not take effect")
	}
}

func TestFlowDeleteByCookie(t *testing.T) {
	sw := New(1, 4, nil)
	sw.InstallDirect(fwdEntry(10, wire.IPv4(10, 0, 1, 1), 2)) // cookie 10
	sw.InstallDirect(fwdEntry(20, wire.IPv4(10, 0, 1, 2), 2)) // cookie 20
	_ = sw.applyFlowMod(&openflow.FlowMod{
		Command: openflow.FlowDelete,
		Entry:   openflow.FlowEntry{Cookie: 10},
	})
	table := sw.Table()
	if len(table) != 1 || table[0].Cookie != 20 {
		t.Errorf("table after delete: %+v", table)
	}
}

func TestEchoAndUnsupported(t *testing.T) {
	sw := New(7, 4, nil)
	conn := controllerHarness(t, sw)
	recvType(t, conn, openflow.TypeHello)

	// The reply carries the table sequence, here moved by one install.
	sw.InstallDirect(fwdEntry(10, wire.IPv4(10, 0, 1, 1), 2))
	if err := conn.Send(&openflow.EchoRequest{XID: 9, Data: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	rep, ok := recvType(t, conn, openflow.TypeEchoReply).(*openflow.EchoReply)
	if !ok || string(rep.Data) != "hi" || rep.XID != 9 || rep.TableSeq == 0 || rep.TableSeq != sw.TableSeq() {
		t.Errorf("echo reply: %+v, want table seq %d", rep, sw.TableSeq())
	}
	// An unexpected message type yields an error reply.
	if err := conn.Send(&openflow.PortStatus{XID: 10, Port: 1, Up: true}); err != nil {
		t.Fatal(err)
	}
	em, ok := recvType(t, conn, openflow.TypeError).(*openflow.ErrorMsg)
	if !ok || em.XID != 10 {
		t.Errorf("error msg: %+v", em)
	}
}

func TestStatsCounters(t *testing.T) {
	col := newCollector()
	sw := New(1, 4, col.transmit)
	dst := wire.IPv4(10, 0, 1, 1)
	sw.InstallDirect(fwdEntry(10, dst, 3))
	for i := 0; i < 5; i++ {
		sw.ProcessPacket(1, udpTo(dst), 0)
	}
	st := sw.Stats()
	if st.RxPackets != 5 || st.TxPackets != 5 || st.FlowMods != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.TableOccupancy != 1 {
		t.Errorf("occupancy = %d", st.TableOccupancy)
	}
}
