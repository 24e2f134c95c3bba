package rvaas

import (
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/topology"
	"repro/internal/verifier"
	"repro/internal/wire"
)

// TestNotifyQueueBoundedInNotifications: the delivery queue bounds queued
// notifications, not jobs. A batch that would take it past notifyQueueCap is
// dropped whole and counted; one that exactly fits is admitted; a batch
// larger than the whole bound still gets through an empty queue. The
// controllers here are never started, so nothing drains the queue under the
// flush.
func TestNotifyQueueBoundedInNotifications(t *testing.T) {
	unstarted := func() *Controller {
		topo, err := topology.Linear(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		platform, err := enclave.NewPlatform()
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{Topology: topo, Platform: platform, ManualRecheck: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	// pass commits n notifying transitions of one session's subscriptions
	// and ends the pass.
	nextID := uint64(0)
	pass := func(c *Controller, session uint64, n int) {
		for i := 0; i < n; i++ {
			nextID++
			c.onVerifierCommit(verifier.Transition{
				Sub: &verifier.Subscription{
					ID: nextID, ClientID: 1, SessionID: session, Kind: wire.QueryReachableDestinations,
					Anchor: verifier.Anchor{Switch: 1, Port: 3, MAC: 0xAA, IP: wire.IPv4(10, 0, 1, 1)},
				},
				Violated: true, Detail: "test transition", Seq: 1, SnapshotID: 5, Changed: true, Notify: true,
			})
		}
		c.flushOutbox()
	}
	expect := func(c *Controller, when string, jobs int, queued int64, dropped uint64) {
		t.Helper()
		if len(c.notifyQ) != jobs || c.notifyQueued.Load() != queued || c.svcStats.notificationsDrop.Load() != dropped {
			t.Fatalf("%s: %d job(s) holding %d notifications, %d dropped; want %d, %d, %d", when,
				len(c.notifyQ), c.notifyQueued.Load(), c.svcStats.notificationsDrop.Load(), jobs, queued, dropped)
		}
	}

	c := unstarted()
	pass(c, 1, 600)
	expect(c, "first batch", 1, 600, 0)
	pass(c, 2, 600)
	expect(c, "batch past the bound", 1, 600, 600)
	pass(c, 3, notifyQueueCap-600)
	expect(c, "batch that exactly fits", 2, notifyQueueCap, 600)
	pass(c, 4, 1)
	expect(c, "one more notification", 2, notifyQueueCap, 601)

	// Draining releases the bound: no switch is attached, so the notifier
	// counts what it takes as dropped.
	c.Start()
	const committed = 2*600 + (notifyQueueCap - 600) + 1
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st := c.SubscriptionStats()
		if st.NotificationsSent+st.NotificationsDropped == committed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sent %d + dropped %d != %d notifying transitions", st.NotificationsSent, st.NotificationsDropped, committed)
		}
	}
	if got := c.notifyQueued.Load(); got != 0 {
		t.Fatalf("drained queue still accounts for %d notifications", got)
	}

	big := unstarted()
	pass(big, 1, 3*notifyQueueCap)
	expect(big, "oversized batch into an empty queue", 1, 3*notifyQueueCap, 0)
	pass(big, 2, 1)
	expect(big, "anything behind it", 1, 3*notifyQueueCap, 1)
}
