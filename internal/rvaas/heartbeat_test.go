package rvaas

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/openflow"
	"repro/internal/topology"
)

// fakeSwitch answers the controller's attach sequence (stats polls, echoes)
// over a secure channel until muted — then it keeps the channel open but
// stops answering, the way a wedged or SIGKILLed remote process looks to a
// datagram transport. It keeps the frame of every Packet-Out it receives.
type fakeSwitch struct {
	conn  *openflow.SecureConn
	muted atomic.Bool
	seq   uint64
	gone  chan struct{} // closed when the channel is

	mu  sync.Mutex
	out [][]byte // Packet-Out frames, in arrival order
}

func (f *fakeSwitch) run() {
	defer close(f.gone)
	for {
		msg, err := f.conn.Recv()
		if err != nil {
			return
		}
		if f.muted.Load() {
			continue
		}
		switch m := msg.(type) {
		case *openflow.StatsRequest:
			f.seq++
			_ = f.conn.Send(&openflow.StatsReply{XID: m.XID, TableSeq: f.seq})
		case *openflow.EchoRequest:
			_ = f.conn.Send(&openflow.EchoReply{XID: m.XID, Data: m.Data})
		case *openflow.PacketOut:
			f.mu.Lock()
			f.out = append(f.out, m.Data)
			f.mu.Unlock()
		}
	}
}

// packetOuts snapshots the Packet-Out frames received so far.
func (f *fakeSwitch) packetOuts() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]byte(nil), f.out...)
}

// switchLab is a controller on a two-switch line plus a dialer for secure
// channels to it, one per named switch identity.
func switchLab(t *testing.T, heartbeat time.Duration) (*Controller, func(name string) (ctlConn, swConn *openflow.SecureConn)) {
	t.Helper()
	topo, err := topology.Linear(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(Config{
		Topology:          topo,
		Platform:          platform,
		ManualRecheck:     true,
		HeartbeatInterval: heartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Close)
	ca, err := openflow.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	ctlID, err := openflow.NewIdentity("rvaas")
	if err != nil {
		t.Fatal(err)
	}
	ctlCert := ca.Issue(ctlID)
	return ctl, func(name string) (ctlConn, swConn *openflow.SecureConn) {
		t.Helper()
		swID, err := openflow.NewIdentity(name)
		if err != nil {
			t.Fatal(err)
		}
		ctlConn, swConn, err = openflow.ConnectSecure(ctlID, ctlCert, swID, ca.Issue(swID), ca.Pub)
		if err != nil {
			t.Fatal(err)
		}
		return ctlConn, swConn
	}
}

// attachFake dials a fake switch, starts it (muted first when mute is set)
// and attaches it as sw.
func attachFake(ctl *Controller, dial func(string) (*openflow.SecureConn, *openflow.SecureConn), sw topology.SwitchID, name string, mute bool) (*fakeSwitch, error) {
	ctlConn, swConn := dial(name)
	f := &fakeSwitch{conn: swConn, gone: make(chan struct{})}
	f.muted.Store(mute)
	go f.run()
	return f, ctl.Attach(sw, ctlConn)
}

// TestHeartbeatDetachesSilentSession: with heartbeats enabled, a session
// whose peer goes silent (channel still open — no transport-close signal)
// is detached after the miss threshold and reported as detached, while a
// responsive session stays attached.
func TestHeartbeatDetachesSilentSession(t *testing.T) {
	ctl, dial := switchLab(t, 20*time.Millisecond)
	attach := func(sw topology.SwitchID, name string) *fakeSwitch {
		t.Helper()
		f, err := attachFake(ctl, dial, sw, name, false)
		if err != nil {
			t.Fatalf("attach %d: %v", sw, err)
		}
		return f
	}
	silent := attach(1, "switch-1")
	attach(2, "switch-2")

	// Both alive: heartbeats keep both sessions attached.
	time.Sleep(100 * time.Millisecond)
	for _, ss := range ctl.SwitchSessions() {
		if !ss.Attached() {
			t.Fatalf("switch %d = %q with a live peer", ss.Switch, ss.State)
		}
	}
	if ctl.Stats().Detaches != 0 {
		t.Fatal("spurious detach with live peers")
	}

	// Switch 1's host process wedges: channel open, nobody home.
	silent.muted.Store(true)
	deadline := time.Now().Add(3 * time.Second)
	for {
		sessions := ctl.SwitchSessions()
		if sessions[0].State == SwitchDetached {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("silent session never detached: %+v", sessions)
		}
		time.Sleep(10 * time.Millisecond)
	}
	sessions := ctl.SwitchSessions()
	if sessions[1].State != SwitchAttached {
		t.Fatalf("responsive switch 2 = %q, want attached", sessions[1].State)
	}
	if st := ctl.Stats(); st.Detaches != 1 {
		t.Errorf("detaches = %d, want 1", st.Detaches)
	}
}

// TestHeartbeatCatchesLostTailEvent: a switch's last table change is
// announced by a flow-monitor event the channel loses, and no later change
// follows, so no Seq gap ever shows the loss. The table sequence on the next
// heartbeat reply does: the controller resyncs and the snapshot gains the
// rule. Without heartbeats the snapshot would stay behind for good.
func TestHeartbeatCatchesLostTailEvent(t *testing.T) {
	const beat = 20 * time.Millisecond
	ctl, connect := switchLab(t, beat)
	ctlConn, sw := connect("switch-1")
	var mu sync.Mutex
	var table []openflow.FlowEntry
	seq := uint64(1)
	go func() {
		for {
			msg, err := sw.Recv()
			if err != nil {
				return
			}
			mu.Lock()
			switch m := msg.(type) {
			case *openflow.StatsRequest:
				_ = sw.Send(&openflow.StatsReply{XID: m.XID, Entries: table, TableSeq: seq})
			case *openflow.EchoRequest:
				_ = sw.Send(&openflow.EchoReply{XID: m.XID, TableSeq: seq})
			}
			mu.Unlock()
		}
	}()
	if err := ctl.Attach(1, ctlConn); err != nil {
		t.Fatal(err)
	}
	// Heartbeats at an unchanged sequence resync nothing.
	time.Sleep(3 * beat)
	resyncs := ctl.Stats().Resyncs
	time.Sleep(3 * beat)
	if n := ctl.Stats().Resyncs; n != resyncs {
		t.Fatalf("resyncs grew %d -> %d with the snapshot in step", resyncs, n)
	}

	// The change whose event the channel lost.
	rule := openflow.FlowEntry{Priority: 9, Cookie: 0x7A11}
	mu.Lock()
	table = []openflow.FlowEntry{rule}
	seq++
	mu.Unlock()

	deadline := time.Now().Add(3 * time.Second)
	for {
		if tbl := ctl.snap.table(1); len(tbl) == 1 && tbl[0].Cookie == rule.Cookie {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never caught up with the switch: %+v", ctl.snap.table(1))
		}
		time.Sleep(beat / 4)
	}
	if n := ctl.Stats().Resyncs; n <= resyncs {
		t.Errorf("resyncs = %d after the lost event, want more than %d", n, resyncs)
	}
}

// TestReplyRoutingIgnoresCollidingXIDs forces the collision that failed
// bring-up after a controller restart: while switch 1's initial sync is
// pending under XID x, another switch sends a reply-typed message with the
// same XID, and switch 1 itself sends a monitor event numbered x (switch-
// originated events count XIDs from 1, independently of the controller).
// Neither may be handed to the waiter: the sync completes with switch 1's
// own StatsReply.
func TestReplyRoutingIgnoresCollidingXIDs(t *testing.T) {
	ctl, connect := switchLab(t, 0)

	// Switch 2 is a well-behaved peer whose channel the test also writes to.
	ctl2, sw2 := connect("switch-2")
	echoed := make(chan struct{}, 1)
	go func() {
		for {
			msg, err := sw2.Recv()
			if err != nil {
				return
			}
			switch m := msg.(type) {
			case *openflow.StatsRequest:
				_ = sw2.Send(&openflow.StatsReply{XID: m.XID, TableSeq: 1})
			case *openflow.EchoReply:
				echoed <- struct{}{}
			}
		}
	}()
	if err := ctl.Attach(2, ctl2); err != nil {
		t.Fatal(err)
	}

	// Switch 1 holds its sync reply back until the foreign reply has been
	// consumed, then sends the colliding monitor event ahead of the answer.
	own := openflow.FlowEntry{Priority: 7, Cookie: 0x600D}
	ctl1, sw1 := connect("switch-1")
	pending := make(chan uint32, 1)
	release := make(chan struct{})
	go func() {
		for {
			msg, err := sw1.Recv()
			if err != nil {
				return
			}
			if m, ok := msg.(*openflow.StatsRequest); ok {
				pending <- m.XID
				<-release
				_ = sw1.Send(&openflow.FlowMonitorReply{XID: m.XID, MonitorID: 1})
				_ = sw1.Send(&openflow.StatsReply{XID: m.XID, Entries: []openflow.FlowEntry{own}, TableSeq: 1})
			}
		}
	}()
	attached := make(chan error, 1)
	go func() { attached <- ctl.Attach(1, ctl1) }()

	xid := <-pending
	foreign := openflow.FlowEntry{Priority: 7, Cookie: 0xBAD}
	if err := sw2.Send(&openflow.StatsReply{XID: xid, Entries: []openflow.FlowEntry{foreign}, TableSeq: 2}); err != nil {
		t.Fatal(err)
	}
	// The controller answers the echo only after it consumed the reply
	// before it on the same channel.
	if err := sw2.Send(&openflow.EchoRequest{XID: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-echoed:
	case <-time.After(2 * time.Second):
		t.Fatal("controller never consumed switch 2's messages")
	}
	close(release)

	select {
	case err := <-attached:
		if err != nil {
			t.Fatalf("attach with colliding XIDs in flight: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("attach never completed")
	}
	if tbl := ctl.snap.table(1); len(tbl) != 1 || tbl[0].Cookie != own.Cookie {
		t.Fatalf("switch 1 synced from the wrong reply: %+v", tbl)
	}
}

// TestAttachReplacesLiveSession: a switch that attaches while it still
// holds a session (its old process died unnoticed, or it re-dialed)
// replaces that session: the attach succeeds, the old channel is closed,
// and the swap counts one detach and one re-attach.
func TestAttachReplacesLiveSession(t *testing.T) {
	ctl, dial := switchLab(t, 0)
	old, err := attachFake(ctl, dial, 1, "switch-1", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attachFake(ctl, dial, 1, "switch-1", false); err != nil {
		t.Fatalf("attach over a live session: %v", err)
	}
	select {
	case <-old.gone:
	case <-time.After(2 * time.Second):
		t.Fatal("replaced session's channel still open")
	}
	ctl.mu.Lock()
	n := len(ctl.sessions)
	ctl.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d sessions, want 1", n)
	}
	if ss := ctl.SwitchSessions()[0]; !ss.Attached() {
		t.Fatalf("switch 1 = %q after the replacing attach", ss.State)
	}
	if st := ctl.Stats(); st.Detaches != 1 || st.Reattaches != 1 {
		t.Fatalf("detaches = %d, reattaches = %d, want 1 and 1", st.Detaches, st.Reattaches)
	}
}

// TestAttachUnansweredSyncDetaches: an attach whose initial sync goes
// unanswered fails and leaves the switch detached, instead of a live
// session on a snapshot that was never synced.
func TestAttachUnansweredSyncDetaches(t *testing.T) {
	ctl, dial := switchLab(t, 0)
	if _, err := attachFake(ctl, dial, 1, "switch-1", true); err == nil {
		t.Fatal("attach succeeded without an initial sync")
	}
	if ss := ctl.SwitchSessions()[0]; ss.Attached() {
		t.Fatalf("switch 1 = %q after a failed initial sync", ss.State)
	}
}

// TestInitialSyncKeepsOvertakingEvent: the switch computes its initial sync
// reply, then a rule change's event overtakes that reply on the channel
// (switchsim sends a reply after releasing its table lock). The reply is
// behind the event and is rejected, so the snapshot keeps the change; a
// forced initial sync would roll it back with no later event to reveal it.
func TestInitialSyncKeepsOvertakingEvent(t *testing.T) {
	ctl, dial := switchLab(t, 0)
	ctlConn, swConn := dial("switch-1")
	added := openflow.FlowEntry{Priority: 7, Cookie: 0x600D}
	go func() {
		for {
			msg, err := swConn.Recv()
			if err != nil {
				return
			}
			if m, ok := msg.(*openflow.StatsRequest); ok {
				_ = swConn.Send(&openflow.FlowMonitorReply{MonitorID: 1, Kind: openflow.FlowEventAdded, Entry: added, Seq: 1})
				_ = swConn.Send(&openflow.StatsReply{XID: m.XID, TableSeq: 0})
			}
		}
	}()
	if err := ctl.Attach(1, ctlConn); err != nil {
		t.Fatal(err)
	}
	if tbl, seq := ctl.snap.table(1), ctl.snap.seqOf(1); len(tbl) != 1 || !tbl[0].Equal(added) || seq != 1 {
		t.Fatalf("snapshot = %+v at seq %d, want the overtaking event's rule at seq 1", tbl, seq)
	}
}
