package rvaas_test

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/wire"
)

// TestNotifyBatchOneSignaturePerPass: N flips of M subscriptions a session
// holds at one access point cost the controller N signatures and the agent N
// signature verifications, not N×M — and every one of the N×M verdicts still
// arrives, in order, on its own subscription. The K in-process invariants
// anchored at the same access point travel as a batch of their own (session
// 0) that the agent discards without any signature work.
func TestNotifyBatchOneSignaturePerPass(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{ManualRecheck: true})
	aps := d.Topology.AccessPoints()
	ap, dst := aps[0], aps[2]
	agent := d.Agent(ap.ClientID)

	const m, k, flips = 50, 10, 4
	items := make([]wire.BatchItem, m)
	for i := range items {
		items[i] = wire.BatchItem{Kind: wire.QueryReachableDestinations, Constraints: ipConstraint(dst.HostIP)}
	}
	subs, err := agent.BatchSubscribe(items)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := d.RVaaS.Subscribe(ap.ClientID, wire.QueryReachableDestinations,
			ipConstraint(dst.HostIP), "", ap.Endpoint); err != nil {
			t.Fatal(err)
		}
	}
	sigs, quotes := agent.SignatureVerifications(), agent.QuoteVerifications()

	drop := dropEntry(dst.HostIP)
	for f := 1; f <= flips; f++ {
		absorbFlip(t, d, drop, f%2 == 1)
		d.RVaaS.RecheckNow()
		for i, sub := range subs {
			n := waitNotification(t, sub.C)
			if n.SubID != sub.ID || n.Seq != uint64(f) || (n.Event == wire.NotifyViolation) != (f%2 == 1) {
				t.Fatalf("flip %d, subscription %d: received %+v", f, i, n)
			}
		}
	}

	st := d.RVaaS.SubscriptionStats()
	if st.NotificationsSent != flips*(m+k) || st.NotificationsDropped != 0 {
		t.Fatalf("sent %d, dropped %d, want %d and 0", st.NotificationsSent, st.NotificationsDropped, flips*(m+k))
	}
	if st.NotifyBatches != 2*flips {
		t.Fatalf("%d flips of two sessions' invariants were signed as %d batches, want %d", flips, st.NotifyBatches, 2*flips)
	}
	if got := agent.SignatureVerifications() - sigs; got != flips {
		t.Fatalf("agent verified %d signatures for %d flips of %d subscriptions, want %d", got, flips, m, flips)
	}
	if got := agent.QuoteVerifications() - quotes; got != 0 {
		t.Fatalf("pushes cost %d further quote verifications", got)
	}
	if agent.NotificationsDropped() != 0 || agent.GapsDetected() != 0 {
		t.Fatalf("agent dropped %d, gaps %d", agent.NotificationsDropped(), agent.GapsDetected())
	}
}

// TestNotifyBatchIndependentOfCommitOrder: the batch one event produces is
// the same bytes whether one pool worker committed its transitions or four
// did concurrently — items are sorted by SubID before signing, so what a
// client verifies does not depend on commit order.
func TestNotifyBatchIndependentOfCommitOrder(t *testing.T) {
	const perKind = 8
	run := func(workers int) *wire.NotifyBatch {
		d := deployLinear(t, 3, deploy.Options{SkipAgents: true, ManualRecheck: true, RecheckParallelism: workers})
		aps := d.Topology.AccessPoints()
		ap, dst := aps[0], aps[2]
		pushed := tapPushes(t, d, ap, nil)
		for i := 0; i < perKind; i++ {
			if _, err := d.RVaaS.Subscribe(ap.ClientID, wire.QueryReachableDestinations,
				ipConstraint(dst.HostIP), "", ap.Endpoint); err != nil {
				t.Fatal(err)
			}
			if _, err := d.RVaaS.Subscribe(ap.ClientID, wire.QueryIsolation,
				ipConstraint(ap.HostIP), "", ap.Endpoint); err != nil {
				t.Fatal(err)
			}
		}
		// One pass sees both changes: nothing reaches dst any more, and
		// nothing reaches ap's own card any more.
		want := d.RVaaS.SnapshotID() + 2
		d.Fabric.Switch(d.Topology.Switches()[1]).InstallDirect(dropEntry(dst.HostIP))
		d.Fabric.Switch(ap.Endpoint.Switch).InstallDirect(dropEntry(ap.HostIP))
		waitUntil(t, 2*time.Second, func() bool { return d.RVaaS.SnapshotID() >= want })
		d.RVaaS.RecheckNow()
		if st := d.RVaaS.SubscriptionStats(); st.NotifyBatches != 1 || st.NotificationsSent != 2*perKind {
			t.Fatalf("workers=%d: sent %d in %d batches, want %d in 1", workers, st.NotificationsSent, st.NotifyBatches, 2*perKind)
		}
		// The session has the frames; the host sees them a moment later.
		var b *wire.NotifyBatch
		waitUntil(t, 2*time.Second, func() bool { b = batchOf(t, pushed()...); return b != nil })
		if b.SnapshotID != d.RVaaS.SnapshotID() {
			t.Fatalf("workers=%d: batch names snapshot %d, the pass evaluated %d", workers, b.SnapshotID, d.RVaaS.SnapshotID())
		}
		return b
	}

	one, four := run(1), run(4)
	if !sort.SliceIsSorted(one.Items, func(i, j int) bool { return one.Items[i].SubID < one.Items[j].SubID }) {
		t.Fatalf("items not in SubID order: %+v", one.Items)
	}
	violations := 0
	for _, it := range one.Items {
		if it.Event == wire.NotifyViolation {
			violations++
		}
	}
	if len(one.Items) != 2*perKind || violations != perKind {
		t.Fatalf("batch has %d items, %d violations; want %d reach violations + %d isolation recoveries", len(one.Items), violations, perKind, perKind)
	}
	if !reflect.DeepEqual(one.Items, four.Items) {
		t.Fatalf("items differ with worker count:\n 1: %+v\n 4: %+v", one.Items, four.Items)
	}
	// The two deployments' snapshot counters need not agree; everything else
	// that is signed must, byte for byte.
	four.SnapshotID = one.SnapshotID
	if !bytes.Equal(one.SigningBytes(), four.SigningBytes()) {
		t.Fatal("signed bytes differ with worker count")
	}
}
