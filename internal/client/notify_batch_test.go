package client

import (
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/wire"
)

// Pushes arrive as one signed batch per server pass. These tests pin down
// that the batch is accepted or rejected as a whole, that each item still
// goes through its own subscription's replay/gap check, and that a message
// nobody here can take costs no signature work.

// batchSubscribed registers m subscriptions in one BatchSubscribe against
// the fake server (ids firstID, firstID+1, …) and returns them.
func batchSubscribed(t *testing.T, a *Agent, nic *fakeNIC, encl *enclave.Enclave, firstID uint64, m int) []*Subscription {
	t.Helper()
	items := make([]wire.BatchItem, m)
	for i := range items {
		items[i].Kind = wire.QueryReachableDestinations
	}
	subsCh := make(chan []*Subscription, 1)
	errCh := make(chan error, 1)
	go func() {
		subs, err := a.BatchSubscribe(items)
		subsCh <- subs
		errCh <- err
	}()
	req, err := wire.UnmarshalBatchSubscribeRequest(sniffEnvelope(t, nic, wire.OpBatchSubscribe, map[uint64]bool{}).Body)
	if err != nil {
		t.Fatal(err)
	}
	reply := &wire.BatchReply{Version: wire.CurrentVersion, Nonce: req.Nonce, Status: wire.StatusOK}
	for i := range req.Items {
		reply.Items = append(reply.Items, wire.BatchReplyItem{SubID: firstID + uint64(i), Status: wire.StatusOK})
	}
	reply.Signature = encl.Sign(reply.SigningBytes())
	reply.Quote = encl.KeyQuote().Marshal()
	deliver(a.HandleFrame, wire.OpBatchReply, reply.Nonce, reply.Marshal())
	subs := <-subsCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	return subs
}

// itemsAt builds one transition per subscription, all at the same seq.
func itemsAt(subs []*Subscription, event wire.NotifyEvent, seq uint64) []wire.NotifyItem {
	items := make([]wire.NotifyItem, len(subs))
	for i, sub := range subs {
		items[i] = pushItem(event, sub.ID, sub.nonce, seq)
	}
	return items
}

func noneDelivered(t *testing.T, subs []*Subscription, when string) {
	t.Helper()
	for _, sub := range subs {
		select {
		case n := <-sub.C:
			t.Fatalf("%s: sub %d received %+v", when, sub.ID, n)
		default:
		}
	}
}

// TestNotifyBatchAcceptedWholeOrNotAtAll: one flipped byte anywhere in a
// batch — any item, the header, the signature, the quote — and nothing of it
// is delivered and no subscription's Seq baseline moves: the genuine batch
// delivered afterwards is every subscription's next notification, no drop,
// no gap.
func TestNotifyBatchAcceptedWholeOrNotAtAll(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	subs := batchSubscribed(t, a, nic, encl, 100, 3)
	genuine := signedBatch(encl, itemsAt(subs, wire.NotifyViolation, 1)...).Marshal()

	for i := range genuine {
		mutant := append([]byte(nil), genuine...)
		mutant[i] ^= 0x01
		deliver(a.HandleFrame, wire.OpNotifyBatch, 1, mutant)
	}
	noneDelivered(t, subs, "after the mutants")
	if d, g := a.NotificationsDropped(), a.GapsDetected(); d != 0 || g != 0 {
		t.Fatalf("mutants moved delivery state: dropped %d, gaps %d", d, g)
	}

	deliver(a.HandleFrame, wire.OpNotifyBatch, 1, genuine)
	for _, sub := range subs {
		select {
		case n := <-sub.C:
			if n.SubID != sub.ID || n.Seq != 1 || n.Event != wire.NotifyViolation || n.SnapshotID != 9 {
				t.Fatalf("sub %d received %+v", sub.ID, n)
			}
		default:
			t.Fatalf("sub %d: genuine batch not delivered after the mutants", sub.ID)
		}
	}
	if d, g := a.NotificationsDropped(), a.GapsDetected(); d != 0 || g != 0 {
		t.Fatalf("a mutant moved a Seq baseline: dropped %d, gaps %d after the genuine batch", d, g)
	}
}

// TestReplayedNotifyBatchDropped: a genuine batch injected a second time
// verifies, and every item that routes to a subscription is then dropped by
// that subscription's own Seq check — counted, never delivered.
func TestReplayedNotifyBatchDropped(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	subs := batchSubscribed(t, a, nic, encl, 100, 3)
	items := append(itemsAt(subs, wire.NotifyViolation, 1), pushItem(wire.NotifyViolation, 999, 0x999, 1)) // + one for nobody here
	batch := signedBatch(encl, items...).Marshal()

	deliver(a.HandleFrame, wire.OpNotifyBatch, 1, batch)
	for _, sub := range subs {
		if n := <-sub.C; n.Seq != 1 {
			t.Fatalf("sub %d received %+v", sub.ID, n)
		}
	}
	sigs := a.SignatureVerifications()
	deliver(a.HandleFrame, wire.OpNotifyBatch, 1, batch)
	noneDelivered(t, subs, "replay")
	if got := a.NotificationsDropped(); got != uint64(len(subs)) {
		t.Fatalf("NotificationsDropped = %d after a replayed batch with %d routable items", got, len(subs))
	}
	if got := a.SignatureVerifications() - sigs; got != 1 {
		t.Fatalf("replayed batch cost %d signature verifications, want 1", got)
	}
	if a.GapsDetected() != 0 {
		t.Fatalf("replay raised %d gap(s)", a.GapsDetected())
	}
}

// TestUnroutableMessagesCostNoSignature: a push none of whose items has a
// subscription here (another session's at this access point), and an ack no
// operation waits for, are discarded before any public-key work. A
// violation dressed as an OpNotify is not a push form at all: ignored even
// for a live subscription, however well signed.
func TestUnroutableMessagesCostNoSignature(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	sub, nonce := subscribed(t, a, nic, encl, 41)
	sigs, quotes := a.SignatureVerifications(), a.QuoteVerifications()

	deliverPush(a, encl, pushItem(wire.NotifyViolation, 7001, 0x7001, 1), pushItem(wire.NotifyRecovery, 7002, 0x7002, 4))
	deliverNotification(a, signedNotification(encl, wire.NotifyAck, 41, 0xDEAD, 0))
	deliverNotification(a, signedNotification(encl, wire.NotifyViolation, 41, nonce, 1))
	noneDelivered(t, []*Subscription{sub}, "single-notification push")
	if s, q := a.SignatureVerifications()-sigs, a.QuoteVerifications()-quotes; s != 0 || q != 0 {
		t.Fatalf("messages nobody takes cost %d signature and %d quote verifications, want 0", s, q)
	}
	if a.NotificationsDropped() != 0 {
		t.Fatalf("an ignored message was counted as a dropped notification")
	}

	// One routable item makes the whole batch worth one verification.
	deliverPush(a, encl, pushItem(wire.NotifyViolation, 7001, 0x7001, 2), pushItem(wire.NotifyViolation, 41, nonce, 1))
	if n := <-sub.C; n.Seq != 1 || n.SubID != 41 {
		t.Fatalf("received %+v", n)
	}
	if got := a.SignatureVerifications() - sigs; got != 1 {
		t.Fatalf("a routable batch cost %d signature verifications, want 1", got)
	}
}

// TestNotifyBatchLostChunkOneResume: a push chain that loses one middle
// frame never completes, so nothing of it is verified or delivered; the
// next pass's batch then arrives one Seq ahead on every subscription, each
// raises a gap, and the recoveries coalesce onto exactly ONE session resume.
func TestNotifyBatchLostChunkOneResume(t *testing.T) {
	a, nic, _, encl := testAgent(t)
	const m = 64
	subs := batchSubscribed(t, a, nic, encl, 100, m)
	sigs := a.SignatureVerifications()

	lost := batchFrames(t, signedBatch(encl, itemsAt(subs, wire.NotifyViolation, 1)...))
	if len(lost) < 3 {
		t.Fatalf("%d-item batch is %d frame(s); the test needs a middle one", m, len(lost))
	}
	for i, pkt := range lost {
		if i != len(lost)/2 {
			a.HandleFrame(pkt)
		}
	}
	noneDelivered(t, subs, "incomplete chain")
	if got := a.SignatureVerifications() - sigs; got != 0 {
		t.Fatalf("incomplete chain cost %d signature verifications", got)
	}
	// A fragment of the stalled chain arriving twice poisons it: the agent's
	// reassembler counts the chain it gave up on.
	a.HandleFrame(lost[0])
	if got := a.ChainsDropped(); got != 1 {
		t.Fatalf("ChainsDropped = %d, want 1", got)
	}

	for _, pkt := range batchFrames(t, signedBatch(encl, itemsAt(subs, wire.NotifyRecovery, 2)...)) {
		a.HandleFrame(pkt)
	}
	for _, sub := range subs {
		select {
		case n := <-sub.C:
			if n.Seq != 2 || n.Event != wire.NotifyRecovery {
				t.Fatalf("sub %d received %+v", sub.ID, n)
			}
		default:
			t.Fatalf("sub %d: the batch after the lost one was not delivered", sub.ID)
		}
	}
	if got := a.SignatureVerifications() - sigs; got != 1 {
		t.Fatalf("a %d-item batch cost %d signature verifications, want 1", m, got)
	}
	if got := a.GapsDetected(); got != m {
		t.Fatalf("gaps detected = %d, want one per subscription (%d)", got, m)
	}

	// Every recovery goroutine was started before the batch's delivery
	// returned; give the stragglers a moment to queue up behind the resume
	// already in flight (there is no event to wait on) before answering it.
	seen := map[uint64]bool{}
	entries := make([]wire.ResumeVerdict, m)
	for i, sub := range subs {
		entries[i] = wire.ResumeVerdict{SubID: sub.ID, Kind: sub.Kind, Status: wire.StatusOK, Seq: 2}
	}
	sniffEnvelope(t, nic, wire.OpSessionResume, map[uint64]bool{})
	time.Sleep(20 * time.Millisecond)
	if req := answerResume(t, a, nic, encl, seen, entries...); len(req.Entries) != m {
		t.Fatalf("resume lists %d subscriptions, want %d", len(req.Entries), m)
	}
	recovered := func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		for _, sub := range subs {
			if sub.resubbing {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(2 * time.Second); !recovered(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("gap recoveries did not finish")
		}
	}
	if got := a.SessionResumesSent(); got != 1 {
		t.Fatalf("%d gaps cost %d session resumes, want exactly 1", m, got)
	}
	nic.mu.Lock()
	defer nic.mu.Unlock()
	for _, pkt := range nic.frames {
		if env := envelopeOf(pkt); env != nil && (env.Op == wire.OpSubscribe || (env.Op == wire.OpSessionResume && !seen[env.CorrelationID])) {
			t.Fatalf("unexpected %v on the wire (corr %#x)", env.Op, env.CorrelationID)
		}
	}
}
