package rvaas_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/history"
	"repro/internal/openflow"
	"repro/internal/rvaas"
	"repro/internal/switchsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestDetachDegradesAndReattachConverges is the dynamic-session lifecycle:
// losing a switch's control channel wipes its snapshot state so standing
// invariants over it go violated (degraded — never stale-green on a view
// nobody can vouch for), and a re-attach of the restarted switch converges
// back through its initial sync.
func TestDetachDegradesAndReattachConverges(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{SkipAgents: true, ManualRecheck: true})
	aps := d.Topology.AccessPoints()

	if _, err := d.RVaaS.Subscribe(aps[0].ClientID, wire.QueryReachableDestinations,
		ipConstraint(aps[2].HostIP), "", aps[0].Endpoint); err != nil {
		t.Fatal(err)
	}
	subs := d.RVaaS.Subscriptions()
	if len(subs) != 1 || subs[0].Violated {
		t.Fatalf("initial subscriptions = %+v", subs)
	}
	for _, ss := range d.RVaaS.SwitchSessions() {
		// A bring-up gap resync may still be settling: attached or
		// resyncing both count as live.
		if !ss.Attached() {
			t.Fatalf("switch %d state = %q before detach", ss.Switch, ss.State)
		}
	}

	// The middle switch's control session dies (its hosting process was
	// killed, say).
	const mid = topology.SwitchID(2)
	var (
		tapMu sync.Mutex
		wipes []rvaas.TapEvent
	)
	d.RVaaS.SetEventTap(func(ev rvaas.TapEvent) {
		if ev.Source == history.SourceDetach {
			tapMu.Lock()
			wipes = append(wipes, ev)
			tapMu.Unlock()
		}
	})
	d.RVaaS.Detach(mid)
	d.RVaaS.SetEventTap(nil)
	d.RVaaS.RecheckNow()

	subs = d.RVaaS.Subscriptions()
	if len(subs) != 1 || !subs[0].Violated {
		t.Fatalf("subscription not degraded after detach: %+v", subs)
	}
	sessions := d.RVaaS.SwitchSessions()
	if len(sessions) != 3 {
		t.Fatalf("sessions = %+v, want all 3 topology switches listed", sessions)
	}
	for _, ss := range sessions {
		if ss.Switch == mid {
			if ss.State != rvaas.SwitchDetached {
				t.Errorf("switch %d state = %q, want %q", ss.Switch, ss.State, rvaas.SwitchDetached)
			}
		} else if !ss.Attached() {
			t.Errorf("switch %d state = %q, want a live session", ss.Switch, ss.State)
		}
	}
	if ss := sessions[1]; ss.Attached() {
		t.Errorf("detached switch reports Attached()")
	}
	tapMu.Lock()
	if len(wipes) != 1 || wipes[0].Switch != mid || len(wipes[0].Entries) != 0 {
		t.Errorf("detach committed %+v, want one SourceDetach wipe of switch %d", wipes, mid)
	}
	tapMu.Unlock()
	if st := d.RVaaS.Stats(); st.Detaches != 1 {
		t.Errorf("detaches = %d, want 1", st.Detaches)
	}
	// A forced resync of a detached switch is a conflict, not a crash.
	if err := d.RVaaS.ForceResync(mid); err == nil {
		t.Error("ForceResync of a detached switch succeeded")
	}

	// The switch's process restarts and re-attaches over a fresh channel.
	swIdent, err := openflow.NewIdentity(fmt.Sprintf("switch-%d", mid))
	if err != nil {
		t.Fatal(err)
	}
	ctlID, err := openflow.NewIdentity("rvaas")
	if err != nil {
		t.Fatal(err)
	}
	ctlConn, swConn, err := openflow.ConnectSecure(ctlID, d.CA.Issue(ctlID), swIdent, d.CA.Issue(swIdent), d.CA.Pub)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Fabric.Switch(mid).Serve(swConn); err != nil {
		t.Fatal(err)
	}
	if err := d.RVaaS.Attach(mid, ctlConn); err != nil {
		t.Fatalf("reattach: %v", err)
	}
	d.RVaaS.RecheckNow()

	subs = d.RVaaS.Subscriptions()
	if len(subs) != 1 || subs[0].Violated {
		t.Fatalf("subscription did not recover after reattach: %+v", subs)
	}
	for _, ss := range d.RVaaS.SwitchSessions() {
		if !ss.Attached() {
			t.Errorf("switch %d state = %q after reattach", ss.Switch, ss.State)
		}
	}
	if st := d.RVaaS.Stats(); st.Reattaches != 1 {
		t.Errorf("reattaches = %d, want 1", st.Reattaches)
	}
}

// TestRestartedSwitchRebasesOnAttach: a switch's process restarts with a
// fresh counter and a different table and attaches over a new channel while
// the controller still holds the dead process's session. The snapshot
// re-bases onto the new process, lower sequence and all, and the new
// process's next event applies.
func TestRestartedSwitchRebasesOnAttach(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{SkipAgents: true, ManualRecheck: true})
	const mid = topology.SwitchID(2)
	waitIngested(t, d.RVaaS, mid, d.Fabric.Switch(mid))
	oldSeq := d.RVaaS.SnapshotSeq(mid)

	restarted := switchsim.New(mid, d.Topology.PortCount(mid), nil)
	t.Cleanup(restarted.Close)
	restarted.InstallDirect(fwd(0x0A000042, 1))
	swIdent, err := openflow.NewIdentity(fmt.Sprintf("switch-%d", mid))
	if err != nil {
		t.Fatal(err)
	}
	ctlID, err := openflow.NewIdentity("rvaas")
	if err != nil {
		t.Fatal(err)
	}
	ctlConn, swConn, err := openflow.ConnectSecure(ctlID, d.CA.Issue(ctlID), swIdent, d.CA.Issue(swIdent), d.CA.Pub)
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Serve(swConn); err != nil {
		t.Fatal(err)
	}
	before := d.RVaaS.Stats()
	if err := d.RVaaS.Attach(mid, ctlConn); err != nil {
		t.Fatalf("attach of the restarted switch: %v", err)
	}
	waitIngested(t, d.RVaaS, mid, restarted)
	if seq := d.RVaaS.SnapshotSeq(mid); seq >= oldSeq {
		t.Fatalf("snapshot seq %d, want re-based below the old session's %d", seq, oldSeq)
	}
	st := d.RVaaS.Stats()
	if st.Detaches != before.Detaches+1 || st.Reattaches != before.Reattaches+1 {
		t.Errorf("detaches %d -> %d, reattaches %d -> %d, want +1 each",
			before.Detaches, st.Detaches, before.Reattaches, st.Reattaches)
	}

	restarted.InstallDirect(fwd(0x0A000043, 3))
	waitIngested(t, d.RVaaS, mid, restarted)
}

// waitIngested waits until the controller's snapshot of sw holds exactly
// the switch's table at the switch's sequence.
func waitIngested(t *testing.T, ctl *rvaas.Controller, id topology.SwitchID, sw *switchsim.Switch) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got []openflow.FlowEntry
		for _, ev := range ctl.ExportState() {
			if ev.Switch == id {
				got = ev.Entries
			}
		}
		want := sw.Table()
		if ctl.SnapshotSeq(id) == sw.TableSeq() && slices.EqualFunc(got, want, openflow.FlowEntry.Equal) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("switch %d: snapshot seq %d with %d entries, switch seq %d with %d",
				id, ctl.SnapshotSeq(id), len(got), sw.TableSeq(), len(want))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fwd(ip uint32, port uint32) openflow.FlowEntry {
	return openflow.FlowEntry{
		Priority: 10,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(ip), Mask: 0xFFFFFFFF},
		}},
		Actions: []openflow.Action{openflow.Output(port)},
	}
}

// TestDetachIdempotentAndShutdownQuiet: a second Detach of the same switch
// is a no-op, and the controller's bulk teardown must not record the
// remaining sessions as detach wipes.
func TestDetachIdempotentAndShutdownQuiet(t *testing.T) {
	d := deployLinear(t, 2, deploy.Options{SkipAgents: true, ManualRecheck: true})
	d.RVaaS.Detach(1)
	d.RVaaS.Detach(1) // idempotent: no session, no second wipe
	if st := d.RVaaS.Stats(); st.Detaches != 1 {
		t.Fatalf("detaches = %d, want 1", st.Detaches)
	}
	before := d.RVaaS.Stats().Detaches
	d.RVaaS.Close()
	if got := d.RVaaS.Stats().Detaches; got != before {
		t.Errorf("shutdown recorded %d extra detach wipes", got-before)
	}
}
