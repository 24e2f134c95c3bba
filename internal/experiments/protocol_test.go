package experiments

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/wire"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestBatchSubscribeEndToEnd registers a batch through the real in-band
// path (one signed envelope), including a rejected item, and checks that
// batch-registered subscriptions receive ordinary violation pushes routed
// by their derived per-item nonces.
func TestBatchSubscribeEndToEnd(t *testing.T) {
	topo, err := topology.Linear(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	aps := topo.AccessPoints()
	ag := d.Agent(aps[0].ClientID)

	cons := []wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(aps[1].HostIP), Mask: 0xFFFFFFFF}}
	items := []wire.BatchItem{
		{Kind: wire.QueryReachableDestinations, Constraints: cons},
		{Kind: wire.QueryPathLength, Constraints: cons, Param: "not-a-number"}, // rejected
		{Kind: wire.QueryWaypointAvoidance, Constraints: cons, Param: "no-such-region"},
	}
	subs, err := ag.BatchSubscribe(items)
	if err != nil {
		t.Fatal(err)
	}
	if subs[0] == nil || subs[2] == nil {
		t.Fatalf("valid batch items rejected: %+v", subs)
	}
	if subs[1] != nil {
		t.Fatalf("invalid batch item accepted: %+v", subs[1])
	}
	if st := d.RVaaS.SubscriptionStats(); st.Active != 2 {
		t.Fatalf("want 2 active subscriptions, have %d", st.Active)
	}

	// A routing change that blackholes the destination must push a
	// violation to the batch-registered reachability invariant.
	d.Provider.UninstallDestination(aps[1].HostIP)
	select {
	case n := <-subs[0].C:
		if n.Event != wire.NotifyViolation {
			t.Fatalf("want violation push, got %v (%s)", n.Event, n.Detail)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no violation push for batch-registered subscription")
	}
}

// TestRestartRecoverySessionResume is the end-to-end durability test: the
// controller is killed while a notification is in flight, restarted on its
// persistence store, and must (a) restore every subscription's verdict and
// sequence number, and (b) let the client heal its notification gap with
// OpSessionResume — not by re-subscribing.
func TestRestartRecoverySessionResume(t *testing.T) {
	topo, err := topology.Linear(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := rvaas.OpenFileStore(filepath.Join(t.TempDir(), "subs.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	d, err := deploy.New(topo, deploy.Options{
		Persist: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	aps := topo.AccessPoints()
	ag := d.Agent(aps[0].ClientID)

	cons := []wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(aps[1].HostIP), Mask: 0xFFFFFFFF}}
	reach, err := ag.Subscribe(wire.QueryReachableDestinations, cons, "")
	if err != nil {
		t.Fatal(err)
	}
	way, err := ag.Subscribe(wire.QueryWaypointAvoidance, cons, "no-such-region")
	if err != nil {
		t.Fatal(err)
	}
	plen, err := ag.Subscribe(wire.QueryPathLength, cons, "100")
	if err != nil {
		t.Fatal(err)
	}
	_ = way

	// Establish a verdict history: violate (push seq 1, delivered) ...
	d.Provider.UninstallDestination(aps[1].HostIP)
	select {
	case n := <-reach.C:
		if n.Event != wire.NotifyViolation || n.Seq != 1 {
			t.Fatalf("unexpected first push: %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no violation push")
	}

	// ... then lose the recovery push: the client NIC goes away (frames
	// drop in flight), routing recovers, the controller pushes seq 2 into
	// the void, and is killed "mid-notification".
	if err := d.Fabric.AttachHost(aps[0].Endpoint, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Provider.InstallDestinationTree(aps[1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "recovery transition", func() bool {
		return d.RVaaS.SubscriptionStats().Recoveries >= 1
	})
	before := d.RVaaS.Subscriptions()
	if len(before) != 3 {
		t.Fatalf("want 3 subscriptions before the kill, have %d", len(before))
	}

	// Kill + restore.
	if err := d.RestartRVaaS(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "restore re-verification", func() bool {
		st := d.RVaaS.SubscriptionStats()
		return st.Restored == 3 && st.PendingRestore == 0 && st.Evaluated >= 3
	})
	after := d.RVaaS.Subscriptions()
	if len(after) != len(before) {
		t.Fatalf("restore lost subscriptions: %d -> %d", len(before), len(after))
	}
	for i := range before {
		b, a := before[i], after[i]
		if a.ID != b.ID || a.ClientID != b.ClientID || a.SessionID != b.SessionID ||
			a.Kind != b.Kind || a.Violated != b.Violated || a.Seq != b.Seq {
			t.Fatalf("subscription state did not survive the restart:\nbefore: %+v\nafter:  %+v", b, a)
		}
	}
	if ses := ag.SessionID(); after[0].SessionID != ses {
		t.Fatalf("restored session id %d != agent session %d", after[0].SessionID, ses)
	}

	// Client comes back online and the next transition exposes the gap
	// (its last delivered seq is 1; the next push is seq 3). Recovery must
	// resynchronize via OpSessionResume against the RESTORED subscription —
	// zero re-subscribes.
	if err := d.Fabric.AttachHost(aps[0].Endpoint, ag.HandlerFor(aps[0])); err != nil {
		t.Fatal(err)
	}
	regBefore := d.RVaaS.SubscriptionStats().Registered
	d.Provider.UninstallDestination(aps[1].HostIP)

	select {
	case n := <-reach.C:
		if n.Event != wire.NotifyViolation || n.Seq != 3 {
			t.Fatalf("unexpected post-restart push: %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no post-restart violation push")
	}
	select {
	case gap := <-ag.Gaps():
		if gap.Err != nil {
			t.Fatalf("gap recovery failed: %v", gap.Err)
		}
		if gap.NewSubID != gap.SubID || gap.SubID != reach.ID {
			t.Fatalf("gap recovery re-subscribed instead of resuming: %+v", gap)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gap recovery never completed")
	}
	st := d.RVaaS.SubscriptionStats()
	if st.SessionResumes == 0 {
		t.Fatal("gap recovery did not use OpSessionResume")
	}
	if st.Registered != regBefore {
		t.Fatalf("gap recovery re-subscribed (%d -> %d registrations)", regBefore, st.Registered)
	}
	// The resumed stream keeps flowing: one more transition is delivered
	// seamlessly at seq 4.
	if err := d.Provider.InstallDestinationTree(aps[1]); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-reach.C:
		if n.Event != wire.NotifyRecovery || n.Seq != 4 {
			t.Fatalf("unexpected post-resume push: %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no post-resume recovery push")
	}
	_ = plen
}

// TestE15Smoke runs the E15 experiment at reduced scale so CI exercises
// the full batch + restart pipeline on every commit.
func TestE15Smoke(t *testing.T) {
	nt := NamedTopology{Name: "linear-10", Build: func() (*topology.Topology, error) { return topology.Linear(10, nil) }}
	row, err := ProtocolScale(nt, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.Speedup <= 1 {
		t.Fatalf("batch registration slower than sequential: %+v", row)
	}
	if row.Restored != 300 || row.Reverified < 300 {
		t.Fatalf("restart recovery incomplete: %+v", row)
	}
	if testing.Verbose() {
		fmt.Printf("e15 smoke: %+v\n", row)
	}
}
