package rvaas_test

import (
	"crypto/ed25519"
	"crypto/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/deploy"
	"repro/internal/history"
	"repro/internal/openflow"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/wire"
)

// dropEntry builds a high-priority rule with no output action: the switch
// simulator and the HSA compiler both treat it as a drop, so installing it
// on a path switch severs reachability for the matched destination.
func dropEntry(dstIP uint32) openflow.FlowEntry {
	return openflow.FlowEntry{
		Priority: 3000,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(dstIP), Mask: 0xFFFFFFFF},
		}},
		Cookie: 0xD0D0_0001,
	}
}

// settle applies pending switch events deterministically: one active poll
// plus a synchronous incremental recheck.
func settle(t *testing.T, d *deploy.Deployment) {
	t.Helper()
	if err := d.RVaaS.PollAll(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.RVaaS.RecheckNow()
}

func TestSubscriptionLifecycle(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{SkipAgents: true, ManualRecheck: true})
	aps := d.Topology.AccessPoints()

	id, err := d.RVaaS.Subscribe(aps[0].ClientID, wire.QueryReachableDestinations,
		ipConstraint(aps[2].HostIP), "", aps[0].Endpoint)
	if err != nil {
		t.Fatal(err)
	}
	subs := d.RVaaS.Subscriptions()
	if len(subs) != 1 || subs[0].ID != id || subs[0].Violated {
		t.Fatalf("subscriptions = %+v", subs)
	}
	if subs[0].FootprintSize == 0 {
		t.Error("initial evaluation recorded no footprint")
	}
	if d.RVaaS.Unsubscribe(aps[0].ClientID+99, id) {
		t.Error("unsubscribe with wrong client id must fail")
	}
	if !d.RVaaS.Unsubscribe(aps[0].ClientID, id) {
		t.Error("unsubscribe failed")
	}
	if len(d.RVaaS.Subscriptions()) != 0 {
		t.Error("subscription not removed")
	}
	if _, err := d.RVaaS.Subscribe(aps[0].ClientID, wire.QueryGeoRegions, nil, "", aps[0].Endpoint); err == nil {
		t.Error("unsupported kind accepted")
	}
	if _, err := d.RVaaS.Subscribe(aps[0].ClientID, wire.QueryPathLength, nil, "not-an-int", aps[0].Endpoint); err == nil {
		t.Error("bad path-length bound accepted")
	}
}

// TestSubscriptionViolationAndRecovery drives the full transition cycle:
// a standing reachability invariant is violated by a drop rule on a path
// switch and recovers when the rule is removed, producing exactly one
// violation and one recovery record.
func TestSubscriptionViolationAndRecovery(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{SkipAgents: true, ManualRecheck: true})
	aps := d.Topology.AccessPoints()
	dst := aps[2]

	id, err := d.RVaaS.Subscribe(aps[0].ClientID, wire.QueryReachableDestinations,
		ipConstraint(dst.HostIP), "", aps[0].Endpoint)
	if err != nil {
		t.Fatal(err)
	}

	mid := d.Topology.Switches()[1]
	drop := dropEntry(dst.HostIP)
	d.Fabric.Switch(mid).InstallDirect(drop)
	settle(t, d)
	recs := d.RVaaS.ViolationLog().PerSub(id)
	if len(recs) != 1 || recs[0].Event != history.EventViolation {
		t.Fatalf("after drop: records = %+v", recs)
	}
	if open := d.RVaaS.ViolationLog().Open(); len(open) != 1 {
		t.Errorf("open violations = %+v", open)
	}

	// Re-checks without further changes must not duplicate the record.
	settle(t, d)
	d.RVaaS.RecheckNow()
	if recs := d.RVaaS.ViolationLog().PerSub(id); len(recs) != 1 {
		t.Fatalf("duplicate records after idle rechecks: %+v", recs)
	}

	d.Fabric.Switch(mid).RemoveDirect(drop)
	settle(t, d)
	recs = d.RVaaS.ViolationLog().PerSub(id)
	if len(recs) != 2 || recs[1].Event != history.EventRecovery {
		t.Fatalf("after restore: records = %+v", recs)
	}
	if open := d.RVaaS.ViolationLog().Open(); len(open) != 0 {
		t.Errorf("violation still open after recovery: %+v", open)
	}
	st := d.RVaaS.SubscriptionStats()
	if st.Violations != 1 || st.Recoveries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestIncrementalRecheckSkipsUntouchedInvariants is the core of the
// dirty-set engine: after a change to one switch, only invariants whose
// footprint contains that switch are re-evaluated; the rest revalidate for
// free.
func TestIncrementalRecheckSkipsUntouchedInvariants(t *testing.T) {
	d := deployLinear(t, 8, deploy.Options{SkipAgents: true, ManualRecheck: true})
	aps := d.Topology.AccessPoints()
	sws := d.Topology.Switches()

	// One neighbor-reachability invariant per adjacent access-point pair:
	// invariant i's footprint is {switch i, switch i+1}.
	for i := 0; i+1 < len(aps); i++ {
		if _, err := d.RVaaS.Subscribe(aps[i].ClientID, wire.QueryReachableDestinations,
			ipConstraint(aps[i+1].HostIP), "", aps[i].Endpoint); err != nil {
			t.Fatal(err)
		}
	}
	nSubs := len(aps) - 1
	settle(t, d) // absorb any deferred event noise into the baseline

	// Dirty the last switch with a rule irrelevant to every invariant.
	// Rule-delta dispatch sees that the changed rule's header space
	// (IPDst 203.0.113.9) misses every invariant's recorded traversal
	// slice and evaluates NOTHING — even the invariant whose footprint
	// contains the churned switch revalidates for free.
	last := sws[len(sws)-1]
	churn := dropEntry(wire.IPv4(203, 0, 113, 9))
	before := d.RVaaS.SubscriptionStats()
	d.Fabric.Switch(last).InstallDirect(churn)
	settle(t, d)
	after := d.RVaaS.SubscriptionStats()

	evaluated := after.Evaluated - before.Evaluated
	revalidated := after.Revalidated - before.Revalidated
	if evaluated != 0 {
		t.Errorf("evaluated %d invariants after an irrelevant change, want 0 of %d (rule-delta dispatch)", evaluated, nSubs)
	}
	// The dirty bucket — the invariant(s) whose footprint ends at the
	// churned switch — was dispatched through the index and filtered.
	if skipped := after.DeltaSkipped - before.DeltaSkipped; skipped == 0 || skipped > 2 {
		t.Errorf("delta-skipped %d invariants, want the 1..2 of %d in the dirty bucket", skipped, nSubs)
	}
	if revalidated < uint64(nSubs-1) {
		t.Errorf("revalidated = %d, want >= %d free revalidations", revalidated, nSubs-1)
	}
	// No verdict flipped: the churn rule touches unrelated traffic only.
	if after.Violations != before.Violations {
		t.Errorf("spurious violations: %+v", after)
	}

	// Naive baseline re-evaluates everything.
	before = d.RVaaS.SubscriptionStats()
	d.RVaaS.RevalidateAll()
	after = d.RVaaS.SubscriptionStats()
	if after.Evaluated-before.Evaluated != uint64(nSubs) {
		t.Errorf("RevalidateAll evaluated %d, want %d", after.Evaluated-before.Evaluated, nSubs)
	}
}

// TestSubscriptionKindsVerdicts exercises isolation, waypoint and
// path-length standing invariants end to end.
func TestSubscriptionKindsVerdicts(t *testing.T) {
	topo, err := topology.MultiRegionWAN([]topology.Region{"eu-west", "offshore", "us-east"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{SkipAgents: true, ManualRecheck: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	aps := topo.AccessPoints()
	ap := aps[0]

	// Waypoint: traffic to a same-region peer must be able to avoid a
	// region it cannot traverse anyway — expect OK; an always-traversed
	// region of the destination must violate.
	dst := aps[len(aps)-1]
	dstRegion := string(topo.RegionOf(dst.Endpoint.Switch))
	wID, err := d.RVaaS.Subscribe(ap.ClientID, wire.QueryWaypointAvoidance,
		ipConstraint(dst.HostIP), dstRegion, ap.Endpoint)
	if err != nil {
		t.Fatal(err)
	}
	var wInfo *rvaasSubInfo
	for _, s := range d.RVaaS.Subscriptions() {
		if s.ID == wID {
			wInfo = &rvaasSubInfo{violated: s.Violated, detail: s.Detail}
		}
	}
	if wInfo == nil || !wInfo.violated {
		t.Errorf("waypoint invariant through destination region should be violated: %+v", wInfo)
	}

	// Path length with a generous bound holds.
	plID, err := d.RVaaS.Subscribe(ap.ClientID, wire.QueryPathLength,
		ipConstraint(dst.HostIP), "64", ap.Endpoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.RVaaS.Subscriptions() {
		if s.ID == plID && s.Violated {
			t.Errorf("path-length bound 64 violated: %s", s.Detail)
		}
	}

	// Isolation across tenants on a WAN (all-pairs routing): other tenants
	// reach the card, so the invariant reports violated from the start and
	// the initial verdict is recorded in the log.
	isoID, err := d.RVaaS.Subscribe(ap.ClientID, wire.QueryIsolation,
		ipConstraint(ap.HostIP), "", ap.Endpoint)
	if err != nil {
		t.Fatal(err)
	}
	if recs := d.RVaaS.ViolationLog().PerSub(isoID); len(recs) != 1 || recs[0].Event != history.EventViolation {
		t.Errorf("initially-violated isolation invariant not logged: %+v", recs)
	}
}

type rvaasSubInfo struct {
	violated bool
	detail   string
}

// TestSubscribeInBand drives the full wire path: agent subscribes via a
// magic-header packet, receives the signed ack, then a violation and a
// recovery notification as the network flaps underneath.
func TestSubscribeInBand(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{})
	aps := d.Topology.AccessPoints()
	agent := d.Agent(aps[0].ClientID)
	dst := aps[2]
	replies := &replyLog{}
	pushed := tapPushes(t, d, aps[0], func(pkt *wire.Packet) {
		replies.record(pkt)
		agent.HandlerFor(aps[0])(pkt)
	})

	sub, err := agent.Subscribe(wire.QueryReachableDestinations, ipConstraint(dst.HostIP), "")
	if err != nil {
		t.Fatal(err)
	}
	if sub.InitialStatus != wire.StatusOK {
		t.Fatalf("initial status = %s (%s)", sub.InitialStatus, sub.InitialDetail)
	}
	// The subscribe traveled as a one-item OpBatchSubscribe: its reply is a
	// signed OpBatchReply naming the subscription.
	replies.mu.Lock()
	regs := append([]*wire.Envelope(nil), replies.envs...)
	replies.mu.Unlock()
	if len(regs) != 1 || regs[0].Op != wire.OpBatchReply {
		t.Fatalf("subscribe answered by %d envelope(s), want one OpBatchReply", len(regs))
	}
	reg, err := wire.UnmarshalBatchReply(regs[0].Body)
	if err != nil || reg.Status != wire.StatusOK || len(reg.Items) != 1 || reg.Items[0].SubID != sub.ID {
		t.Fatalf("registration reply = %+v (%v)", reg, err)
	}

	mid := d.Topology.Switches()[1]
	drop := dropEntry(dst.HostIP)
	d.Fabric.Switch(mid).InstallDirect(drop)
	n := waitNotification(t, sub.C)
	if n.Event != wire.NotifyViolation || n.Status != wire.StatusViolation || n.SubID != sub.ID {
		t.Fatalf("notification = %+v", n)
	}

	d.Fabric.Switch(mid).RemoveDirect(drop)
	n = waitNotification(t, sub.C)
	if n.Event != wire.NotifyRecovery || n.Status != wire.StatusOK {
		t.Fatalf("notification = %+v", n)
	}
	if n.Seq != 2 {
		t.Errorf("seq = %d, want 2", n.Seq)
	}

	// A lone transition is a one-item batch in one frame. Replaying the
	// captured (genuinely signed) violation push must not be delivered as a
	// fresh event: its sequence is behind.
	frames := pushed()
	if len(frames) != 2 {
		t.Fatalf("two transitions reached the NIC as %d frames, want 2 unchunked batches", len(frames))
	}
	if b := batchOf(t, frames[0]); b == nil || len(b.Items) != 1 || b.Items[0].Event != wire.NotifyViolation ||
		b.Items[0].SubID != sub.ID || b.Items[0].Nonce != wire.BatchItemNonce(reg.Nonce, 0) {
		t.Fatalf("first push = %+v, want sub %d under item nonce %#x", b, sub.ID, wire.BatchItemNonce(reg.Nonce, 0))
	}
	dropsBefore := agent.NotificationsDropped()
	agent.HandlerFor(aps[0])(frames[0])
	if agent.NotificationsDropped() != dropsBefore+1 {
		t.Error("replayed stale notification not dropped")
	}
	select {
	case stray := <-sub.C:
		t.Fatalf("replayed notification delivered: %+v", stray)
	default:
	}

	if err := agent.Unsubscribe(sub); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C; ok {
		t.Error("channel not closed after unsubscribe")
	}
	if st := d.RVaaS.SubscriptionStats(); st.Active != 0 || st.Removed != 1 {
		t.Errorf("server stats = %+v", st)
	}
}

func waitNotification(t *testing.T, ch <-chan *wire.Notification) *wire.Notification {
	t.Helper()
	select {
	case n, ok := <-ch:
		if !ok {
			t.Fatal("notification channel closed")
		}
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for notification")
	}
	return nil
}

// clientFrame frames one raw client op the way a client would: an envelope
// (session 0) on the magic port. signSub and signBatch sign the bodies to
// match.
func clientFrame(ap topology.AccessPoint, op wire.Op, corr uint64, body []byte) *wire.Packet {
	return wire.NewEnvelopePacket(ap.HostMAC, ap.HostIP, &wire.Envelope{
		Version: wire.EnvelopeVersion, Op: op, CorrelationID: corr, Body: body,
	})
}

func registerFrame(ap topology.AccessPoint, b *wire.BatchSubscribeRequest) *wire.Packet {
	return clientFrame(ap, wire.OpBatchSubscribe, b.Nonce, b.Marshal())
}

func unsubscribeFrame(ap topology.AccessPoint, sr *wire.SubscribeRequest) *wire.Packet {
	return clientFrame(ap, wire.OpUnsubscribe, sr.Nonce, sr.Marshal())
}

func signSub(priv ed25519.PrivateKey, sr *wire.SubscribeRequest) {
	sr.Signature = ed25519.Sign(priv, wire.SessionSigningBytes(sr.SigningBytes(), 0))
}

func signBatch(priv ed25519.PrivateKey, b *wire.BatchSubscribeRequest) {
	b.Signature = ed25519.Sign(priv, wire.SessionSigningBytes(b.SigningBytes(), 0))
}

// oneItem is a registration of one reachability invariant toward dst,
// anchored at ap and claiming clientID.
func oneItem(clientID, nonce uint64, ap topology.AccessPoint, dst uint32) *wire.BatchSubscribeRequest {
	return &wire.BatchSubscribeRequest{
		Version:      wire.CurrentVersion,
		ClientID:     clientID,
		Nonce:        nonce,
		AnchorSwitch: uint32(ap.Endpoint.Switch),
		AnchorPort:   uint32(ap.Endpoint.Port),
		Items:        []wire.BatchItem{{Kind: wire.QueryReachableDestinations, Constraints: ipConstraint(dst)}},
	}
}

// replyLog records the (unchunked) reply envelopes delivered to a host.
type replyLog struct {
	mu   sync.Mutex
	envs []*wire.Envelope
}

func (l *replyLog) record(pkt *wire.Packet) {
	if !pkt.IsRVaaSV2Reply() {
		return
	}
	if env, err := wire.UnmarshalEnvelope(pkt.Payload); err == nil {
		l.mu.Lock()
		l.envs = append(l.envs, env)
		l.mu.Unlock()
	}
}

// attachReplyLog replaces ap's host with a recorder.
func attachReplyLog(t *testing.T, d *deploy.Deployment, ap topology.AccessPoint) *replyLog {
	t.Helper()
	l := &replyLog{}
	if err := d.Fabric.AttachHost(ap.Endpoint, l.record); err != nil {
		t.Fatal(err)
	}
	return l
}

// wait returns the reply with correlation id corr, failing the test if none
// arrives.
func (l *replyLog) wait(t *testing.T, corr uint64) *wire.Envelope {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		l.mu.Lock()
		for i, env := range l.envs {
			if env.CorrelationID == corr {
				l.envs = append(l.envs[:i], l.envs[i+1:]...)
				l.mu.Unlock()
				return env
			}
		}
		l.mu.Unlock()
	}
	t.Fatalf("no reply with correlation id %#x", corr)
	return nil
}

// batchReply waits for the registration reply to nonce and decodes it.
func (l *replyLog) batchReply(t *testing.T, nonce uint64) *wire.BatchReply {
	t.Helper()
	env := l.wait(t, nonce)
	r, err := wire.UnmarshalBatchReply(env.Body)
	if env.Op != wire.OpBatchReply || err != nil {
		t.Fatalf("reply to registration %#x: %v envelope (%v)", nonce, env.Op, err)
	}
	return r
}

// isPush reports whether a frame arriving at a host belongs to a pushed
// notification batch: the batch envelope itself, or one chunk of its chain.
func isPush(pkt *wire.Packet) bool {
	if !pkt.IsRVaaSV2Reply() {
		return false
	}
	env, err := wire.UnmarshalEnvelope(pkt.Payload)
	if err != nil {
		return false
	}
	if env.Op == wire.OpChunk {
		c, err := wire.UnmarshalChunk(env.Body)
		return err == nil && c.InnerOp == wire.OpNotifyBatch
	}
	return env.Op == wire.OpNotifyBatch
}

// tapPushes interposes on ap's NIC: every push frame is recorded, then the
// frame goes on to next (nil: nowhere). The returned function snapshots the
// frames recorded so far, in arrival order.
func tapPushes(t *testing.T, d *deploy.Deployment, ap topology.AccessPoint, next func(*wire.Packet)) func() []*wire.Packet {
	t.Helper()
	var mu sync.Mutex
	var frames []*wire.Packet
	if err := d.Fabric.AttachHost(ap.Endpoint, func(pkt *wire.Packet) {
		if isPush(pkt) {
			mu.Lock()
			frames = append(frames, pkt.Clone())
			mu.Unlock()
		}
		if next != nil {
			next(pkt)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return func() []*wire.Packet {
		mu.Lock()
		defer mu.Unlock()
		return append([]*wire.Packet(nil), frames...)
	}
}

// batchOf decodes the push batch a chain of captured frames carries (nil
// while the chain is incomplete).
func batchOf(t *testing.T, frames ...*wire.Packet) *wire.NotifyBatch {
	t.Helper()
	ra := wire.NewReassembler(0)
	for _, pkt := range frames {
		env, err := wire.UnmarshalEnvelope(pkt.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if env.Op == wire.OpChunk {
			if env, err = ra.Accept(0, env); err != nil {
				t.Fatal(err)
			}
		}
		if env != nil {
			b, err := wire.UnmarshalNotifyBatch(env.Body)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	return nil
}

// TestForgedSubscriptionOpsRejected verifies subscription mutations are
// authenticated: a registration or removal not signed by the claimed
// client's registered key is rejected, so a co-tenant can neither disable a
// victim's standing monitoring nor register invariants in its name, and a
// correctly signed registration replayed from a foreign port cannot anchor
// there.
func TestForgedSubscriptionOpsRejected(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{})
	aps := d.Topology.AccessPoints()
	victim := d.Agent(aps[0].ClientID)
	dst := aps[2]

	sub, err := victim.Subscribe(wire.QueryReachableDestinations, ipConstraint(dst.HostIP), "")
	if err != nil {
		t.Fatal(err)
	}

	// Attacker: a different tenant forging ops in the victim's name, signed
	// with its own key, so verification against the victim's registered key
	// must fail. Its host records the signed rejections.
	attacker := aps[1]
	replies := attachReplyLog(t, d, attacker)
	_, attackerKey, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	inject := func(pkt *wire.Packet) {
		t.Helper()
		if err := d.Fabric.InjectFromHost(attacker.Endpoint, pkt); err != nil {
			t.Fatal(err)
		}
	}
	rm := &wire.SubscribeRequest{Version: wire.CurrentVersion, Op: wire.SubOpRemove,
		ClientID: aps[0].ClientID, Nonce: 0xF0F0_0001, SubID: sub.ID}
	signSub(attackerKey, rm)
	inject(unsubscribeFrame(attacker, rm))
	if env := replies.wait(t, rm.Nonce); env.Op != wire.OpNotify {
		t.Fatalf("forged removal answered by %v", env.Op)
	} else if ack, err := wire.UnmarshalNotification(env.Body); err != nil || ack.Event != wire.NotifyError {
		t.Fatalf("forged removal acked: %+v (%v)", ack, err)
	}
	forged := oneItem(aps[0].ClientID, 0xF0F0_0002, attacker, dst.HostIP)
	signBatch(attackerKey, forged)
	inject(registerFrame(attacker, forged))
	if r := replies.batchReply(t, forged.Nonce); r.Status != wire.StatusError || len(r.Items) != 0 {
		t.Fatalf("forged registration answered %+v", r)
	}

	// A correctly-signed registration whose signed anchor does not match
	// the actual ingress (a captured frame replayed from the attacker's
	// port) must be rejected too.
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	d.RVaaS.RegisterClient(999, pub)
	misanchored := oneItem(999, 0xF0F0_0099, aps[0], dst.HostIP) // victim's port
	signBatch(priv, misanchored)
	inject(registerFrame(attacker, misanchored))
	if r := replies.batchReply(t, misanchored.Nonce); r.Status != wire.StatusError || len(r.Items) != 0 {
		t.Fatalf("misanchored registration answered %+v", r)
	}

	st := d.RVaaS.SubscriptionStats()
	if st.Active != 1 || st.Registered != 1 || st.Removed != 0 {
		t.Fatalf("forged ops mutated state: %+v", st)
	}
	subs := d.RVaaS.Subscriptions()
	if len(subs) != 1 || subs[0].ID != sub.ID {
		t.Fatalf("victim's subscription gone: %+v", subs)
	}
}

// TestReplayedSubscribeRejected verifies that re-sending a valid signed
// registration frame (verbatim replay at the correct port) registers
// nothing: the batch nonce is remembered, also after the invariant was
// removed. Removal by registration nonce names a batch item by its derived
// nonce.
func TestReplayedSubscribeRejected(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{})
	aps := d.Topology.AccessPoints()
	ap := aps[0]
	replies := attachReplyLog(t, d, ap)
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	d.RVaaS.RegisterClient(777, pub)
	inject := func(pkt *wire.Packet) {
		t.Helper()
		if err := d.Fabric.InjectFromHost(ap.Endpoint, pkt); err != nil {
			t.Fatal(err)
		}
	}
	req := oneItem(777, 0xABAB_0001, ap, aps[2].HostIP)
	signBatch(priv, req)
	for i := 0; i < 3; i++ {
		inject(registerFrame(ap, req))
		r := replies.batchReply(t, req.Nonce)
		if ok := r.Status == wire.StatusOK; ok != (i == 0) {
			t.Fatalf("send %d of the same registration answered %+v", i, r)
		}
	}
	if st := d.RVaaS.SubscriptionStats(); st.Active != 1 || st.Registered != 1 {
		t.Fatalf("replayed registration registered duplicates: %+v", st)
	}

	// The nonce memory must survive unsubscription: replaying the captured
	// frame after the client removed the invariant must not resurrect it.
	id := d.RVaaS.Subscriptions()[0].ID
	if !d.RVaaS.Unsubscribe(777, id) {
		t.Fatal("unsubscribe failed")
	}
	inject(registerFrame(ap, req))
	if r := replies.batchReply(t, req.Nonce); r.Status != wire.StatusError {
		t.Fatalf("post-unsubscribe replay answered %+v", r)
	}
	if st := d.RVaaS.SubscriptionStats(); st.Active != 0 || st.Registered != 1 {
		t.Fatalf("post-unsubscribe replay resurrected the subscription: %+v", st)
	}

	// Removal by registration nonce (the lost-reply cleanup path) removes
	// exactly the batch item whose derived nonce it names.
	req2 := oneItem(777, 0xABAB_0002, ap, aps[2].HostIP)
	req2.Items = append(req2.Items, wire.BatchItem{Kind: wire.QueryReachableDestinations, Constraints: ipConstraint(aps[1].HostIP)})
	signBatch(priv, req2)
	inject(registerFrame(ap, req2))
	r2 := replies.batchReply(t, req2.Nonce)
	if r2.Status != wire.StatusOK || len(r2.Items) != 2 {
		t.Fatalf("two-item registration answered %+v", r2)
	}
	rm := &wire.SubscribeRequest{
		Version:  wire.CurrentVersion,
		Op:       wire.SubOpRemove,
		ClientID: 777,
		Nonce:    0xABAB_0003,
		RefNonce: wire.BatchItemNonce(req2.Nonce, 1),
	}
	signSub(priv, rm)
	inject(unsubscribeFrame(ap, rm))
	if ack, err := wire.UnmarshalNotification(replies.wait(t, rm.Nonce).Body); err != nil || ack.Event != wire.NotifyAck || ack.SubID != r2.Items[1].SubID {
		t.Fatalf("remove-by-nonce ack = %+v (%v), want sub %d removed", ack, err, r2.Items[1].SubID)
	}
	if subs := d.RVaaS.Subscriptions(); len(subs) != 1 || subs[0].ID != r2.Items[0].SubID {
		t.Fatalf("remove-by-nonce left %+v, want only sub %d", subs, r2.Items[0].SubID)
	}
}

// TestResumeRejectsWrongIngress: OpSessionResume is the one verdict read,
// so it carries the anchor defense. An authentically signed resume frame
// replayed from a foreign port gets only StatusError entries — no sequence
// number and no verdict detail reaches the replayer — while the same frame
// at the anchored ingress gets the live verdicts.
func TestResumeRejectsWrongIngress(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{})
	aps := d.Topology.AccessPoints()
	owner, foreign := aps[0], aps[1]
	ownerReplies := attachReplyLog(t, d, owner)
	foreignReplies := attachReplyLog(t, d, foreign)
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	d.RVaaS.RegisterClient(777, pub)
	reg := oneItem(777, 0xC0C0_0001, owner, aps[2].HostIP)
	reg.Items = append(reg.Items, wire.BatchItem{Kind: wire.QueryReachableDestinations, Constraints: ipConstraint(0x0A09_0909)})
	signBatch(priv, reg)
	if err := d.Fabric.InjectFromHost(owner.Endpoint, registerFrame(owner, reg)); err != nil {
		t.Fatal(err)
	}
	if r := ownerReplies.batchReply(t, reg.Nonce); r.Status != wire.StatusOK || len(r.Items) != 2 {
		t.Fatalf("registration answered %+v", r)
	}
	live := map[uint64]rvaas.SubscriptionInfo{}
	for _, info := range d.RVaaS.Subscriptions() {
		live[info.ID] = info
	}

	req := &wire.SessionResumeRequest{Version: wire.CurrentVersion, ClientID: 777, Nonce: 0xC0C0_0002}
	req.Signature = ed25519.Sign(priv, wire.SessionSigningBytes(req.SigningBytes(), 0))
	resume := func(ap topology.AccessPoint, replies *replyLog) *wire.SessionResumeReply {
		t.Helper()
		if err := d.Fabric.InjectFromHost(ap.Endpoint, clientFrame(ap, wire.OpSessionResume, req.Nonce, req.Marshal())); err != nil {
			t.Fatal(err)
		}
		env := replies.wait(t, req.Nonce)
		r, err := wire.UnmarshalSessionResumeReply(env.Body)
		if env.Op != wire.OpSessionResumeReply || err != nil || r.Status != wire.StatusOK || len(r.Entries) != len(live) {
			t.Fatalf("resume at %v answered %v %+v (%v)", ap.Endpoint, env.Op, r, err)
		}
		return r
	}

	for _, ent := range resume(foreign, foreignReplies).Entries {
		info := live[ent.SubID]
		if ent.Status != wire.StatusError || ent.Seq != 0 || strings.Contains(ent.Detail, info.Detail) {
			t.Fatalf("foreign ingress learned a verdict: %+v (live: %+v)", ent, info)
		}
	}
	for _, ent := range resume(owner, ownerReplies).Entries {
		info := live[ent.SubID]
		want := wire.StatusOK
		if info.Violated {
			want = wire.StatusViolation
		}
		if ent.Status != want || ent.Seq != info.Seq || ent.Detail != info.Detail {
			t.Fatalf("anchored ingress got %+v, want the live verdict %+v", ent, info)
		}
	}
}

// TestRetiredOpsIgnored: a frame carrying a retired op number (subscribe,
// query-verdict, batch-query and its reply) is ignored — no reply, no
// registration, no state change — even when its body is a well-formed,
// correctly signed request of the retired op.
func TestRetiredOpsIgnored(t *testing.T) {
	d := deployLinear(t, 2, deploy.Options{})
	aps := d.Topology.AccessPoints()
	ap := aps[0]
	replies := attachReplyLog(t, d, ap)
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	d.RVaaS.RegisterClient(777, pub)
	// The retired subscribe's body: a SubscribeRequest with op 1 (add).
	add := &wire.SubscribeRequest{Version: wire.CurrentVersion, Op: 1, ClientID: 777, Nonce: 0xD0D0_0001,
		AnchorSwitch: uint32(ap.Endpoint.Switch), AnchorPort: uint32(ap.Endpoint.Port),
		Kind: wire.QueryReachableDestinations, Constraints: ipConstraint(aps[1].HostIP)}
	signSub(priv, add)
	before := d.RVaaS.Stats().PacketIns
	for _, op := range []wire.Op{3, 5, 9, 10} {
		if err := d.Fabric.InjectFromHost(ap.Endpoint, clientFrame(ap, op, add.Nonce, add.Marshal())); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); d.RVaaS.Stats().PacketIns < before+4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("retired-op frames never reached RVaaS")
		}
	}
	if st := d.RVaaS.SubscriptionStats(); st.Registered != 0 {
		t.Fatalf("retired op registered a subscription: %+v", st)
	}
	// A live registration behind them under the same nonce is accepted: no
	// retired frame consumed it, and everything ahead of it was served.
	live := oneItem(777, add.Nonce, ap, aps[1].HostIP)
	signBatch(priv, live)
	if err := d.Fabric.InjectFromHost(ap.Endpoint, registerFrame(ap, live)); err != nil {
		t.Fatal(err)
	}
	if r := replies.batchReply(t, live.Nonce); r.Status != wire.StatusOK || len(r.Items) != 1 || r.Items[0].SubID == 0 {
		t.Fatalf("registration after the retired ops answered %+v", r)
	}
	replies.mu.Lock()
	defer replies.mu.Unlock()
	if len(replies.envs) != 0 {
		t.Fatalf("retired ops answered with %d envelope(s), first %v", len(replies.envs), replies.envs[0].Op)
	}
	if st := d.RVaaS.SubscriptionStats(); st.Registered != 1 || st.Active != 1 {
		t.Fatalf("subscriptions after the retired ops: %+v", st)
	}
}

// TestInterceptionRulesCoverSubscriptionPort pins the interception surface:
// every switch carries exactly one RVaaS rule — the envelope port that
// subscriptions (and every other client op) arrive on — the self-rule
// check expects exactly that one, and a frame to a retired v1 magic port
// is ordinary data-plane traffic again: no Packet-In, no reply.
func TestInterceptionRulesCoverSubscriptionPort(t *testing.T) {
	d := deployLinear(t, 2, deploy.Options{SkipAgents: true})
	waitUntil(t, time.Second, func() bool { return selfRulesMissing(d, 1) == 0 && selfRulesMissing(d, 2) == 0 })
	for _, sw := range d.Topology.Switches() {
		own, envelope := 0, false
		for _, e := range d.Fabric.Switch(sw).Table() {
			if e.Cookie&rvaas.CookieRVaaS != rvaas.CookieRVaaS {
				continue
			}
			own++
			for _, f := range e.Match.Fields {
				if f.Field == wire.FieldL4Dst && f.Value == uint64(wire.PortRVaaSV2) {
					envelope = true
				}
			}
		}
		if own != 1 || !envelope {
			t.Errorf("switch %d: %d RVaaS rules (envelope rule: %v), want the envelope port's one", sw, own, envelope)
		}
	}
	// The rule gone is tampering.
	first := d.Topology.Switches()[0]
	sw := d.Fabric.Switch(first)
	for _, e := range sw.Table() {
		if e.Cookie&rvaas.CookieRVaaS == rvaas.CookieRVaaS {
			sw.RemoveDirect(e)
			break
		}
	}
	waitUntil(t, time.Second, func() bool { return selfRulesMissing(d, first) == 1 })

	src, dst := d.Topology.AccessPoints()[0], d.Topology.AccessPoints()[1]
	atSrc, atDst := make(chan *wire.Packet, 4), make(chan *wire.Packet, 4)
	if err := d.Fabric.AttachHost(src.Endpoint, func(pkt *wire.Packet) { atSrc <- pkt }); err != nil {
		t.Fatal(err)
	}
	if err := d.Fabric.AttachHost(dst.Endpoint, func(pkt *wire.Packet) { atDst <- pkt }); err != nil {
		t.Fatal(err)
	}
	before := d.RVaaS.Stats().PacketIns
	q := &wire.QueryRequest{Version: wire.CurrentVersion, Kind: wire.QueryIsolation, ClientID: src.ClientID, Nonce: 7}
	retired := &wire.Packet{
		EthDst: dst.HostMAC, EthSrc: src.HostMAC, EthType: wire.EthTypeIPv4,
		IPSrc: src.HostIP, IPDst: dst.HostIP, IPProto: wire.IPProtoUDP, TTL: 64,
		L4Src: 5000, L4Dst: 0x5AA5, Payload: q.Marshal(),
	}
	if err := d.Fabric.InjectFromHost(src.Endpoint, retired); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-atDst:
		if pkt.L4Dst != 0x5AA5 {
			t.Fatalf("destination host received %v", pkt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame to the retired port was not forwarded like ordinary traffic")
	}
	select {
	case pkt := <-atSrc:
		t.Fatalf("frame to the retired port was answered: %v", pkt)
	case <-time.After(50 * time.Millisecond):
	}
	if got := d.RVaaS.Stats().PacketIns; got != before {
		t.Fatalf("frame to the retired port raised %d Packet-In(s)", got-before)
	}
}

// TestWedgedSubscriberDoesNotBlockRecheck: notification delivery is
// loss-tolerant, so a subscriber whose host handler never returns (wedging
// its switch's packet-out path) must not stall a re-verification pass — the
// pass hands its frames to the switch session without ever blocking.
func TestWedgedSubscriberDoesNotBlockRecheck(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{SkipAgents: true, ManualRecheck: true})
	aps := d.Topology.AccessPoints()
	dst := aps[2]

	wedge := make(chan struct{})
	t.Cleanup(func() { close(wedge) }) // unblock before d.Close tears down switches
	if err := d.Fabric.AttachHost(aps[0].Endpoint, func(pkt *wire.Packet) {
		if isPush(pkt) {
			<-wedge
		}
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := d.RVaaS.Subscribe(aps[0].ClientID, wire.QueryReachableDestinations,
		ipConstraint(dst.HostIP), "", aps[0].Endpoint); err != nil {
		t.Fatal(err)
	}

	drop := dropEntry(dst.HostIP)
	flip := func(install bool) {
		absorbFlip(t, d, drop, install)
		start := time.Now()
		d.RVaaS.RecheckNow()
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("recheck blocked %v behind a wedged subscriber", elapsed)
		}
	}
	// Two transitions: the first notification wedges the subscriber's
	// switch serve loop; the second must still commit promptly.
	flip(true)
	flip(false)

	st := d.RVaaS.SubscriptionStats()
	if st.Violations != 1 || st.Recoveries != 1 {
		t.Fatalf("transitions not committed behind wedged subscriber: %+v", st)
	}
	// The wedged switch's session still buffers both one-item batches.
	if st.NotificationsSent != 2 || st.NotifyBatches != 2 {
		t.Fatalf("notifications sent = %d in %d batches, want 2 in 2", st.NotificationsSent, st.NotifyBatches)
	}
}

// absorbFlip installs or removes rule on the middle switch and waits for the
// controller's snapshot to take the event in.
func absorbFlip(t *testing.T, d *deploy.Deployment, rule openflow.FlowEntry, install bool) {
	t.Helper()
	mid := d.Fabric.Switch(d.Topology.Switches()[1])
	want := d.RVaaS.SnapshotID() + 1
	if install {
		mid.InstallDirect(rule)
	} else {
		mid.RemoveDirect(rule)
	}
	for deadline := time.Now().Add(2 * time.Second); d.RVaaS.SnapshotID() < want; {
		if !time.Now().Before(deadline) {
			t.Fatal("churn event not absorbed")
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// TestSaturatedSessionCountsEachNotificationOnce: every notifying
// transition ends up in exactly one of NotificationsSent (its switch
// session took every frame of its batch) and NotificationsDropped (the
// session refused a frame of the chain — then the whole batch counts
// dropped, not part of it, and not both). The pass counts its own pushes, so
// the counters are final when RecheckNow returns.
func TestSaturatedSessionCountsEachNotificationOnce(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{SkipAgents: true, ManualRecheck: true})
	aps := d.Topology.AccessPoints()
	dst := aps[2]

	wedge := make(chan struct{})
	t.Cleanup(func() { close(wedge) }) // unblock before d.Close tears down switches
	if err := d.Fabric.AttachHost(aps[0].Endpoint, func(pkt *wire.Packet) {
		if isPush(pkt) {
			<-wedge
		}
	}); err != nil {
		t.Fatal(err)
	}
	// 1500 invariants anchored at the wedged host: a flip's batch is a chain
	// of ~70 (recovery) to ~95 (violation) frames, so sixteen flips push
	// ~1300 frames at a session that buffers 1024.
	const subs, flips = 1500, 16
	for i := 0; i < subs; i++ {
		if _, err := d.RVaaS.Subscribe(aps[0].ClientID, wire.QueryReachableDestinations,
			ipConstraint(dst.HostIP), "", aps[0].Endpoint); err != nil {
			t.Fatal(err)
		}
	}
	drop := dropEntry(dst.HostIP)
	for i := 0; i < flips; i++ {
		absorbFlip(t, d, drop, i%2 == 0)
		d.RVaaS.RecheckNow()
	}

	st := d.RVaaS.SubscriptionStats()
	if got := st.Violations + st.Recoveries; got != subs*flips {
		t.Fatalf("transitions = %d, want %d", got, subs*flips)
	}
	if st.NotificationsDropped == 0 || st.NotificationsSent == 0 {
		t.Fatalf("session not saturated: sent=%d dropped=%d", st.NotificationsSent, st.NotificationsDropped)
	}
	if st.NotificationsSent+st.NotificationsDropped != subs*flips {
		t.Fatalf("sent %d + dropped %d != %d notifying transitions",
			st.NotificationsSent, st.NotificationsDropped, subs*flips)
	}
	// Batches are whole: each went to exactly one counter.
	if st.NotificationsSent != subs*st.NotifyBatches || st.NotificationsDropped%subs != 0 {
		t.Fatalf("a batch was split between the counters: sent=%d in %d batches, dropped=%d (batch size %d)",
			st.NotificationsSent, st.NotifyBatches, st.NotificationsDropped, subs)
	}
}

// TestGapRecoveryEndToEnd drives the full delivery-hole loop over the
// wire: a violation notification is lost in-network (the fire-and-forget
// Packet-Out hole), the next transition arrives with a skipped Seq, and
// the agent transparently resynchronizes via a session resume
// (OpSessionResume) — keeping the SAME server-side subscription alive,
// no re-subscribe needed — ending with a resynchronized client that keeps
// receiving subsequent transitions.
func TestGapRecoveryEndToEnd(t *testing.T) {
	d := deployLinear(t, 3, deploy.Options{SkipAgents: true})
	aps := d.Topology.AccessPoints()
	ap, dst := aps[0], aps[2]

	agent, err := client.New(client.Config{
		ClientID: ap.ClientID,
		Access:   ap,
		NIC:      d.Fabric,
		Trust: client.TrustAnchors{
			PlatformRoot: d.Platform.RootKey(),
			Measurement:  rvaas.Measurement(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)
	agent.PinServerKey(d.RVaaS.PublicKey())
	d.RVaaS.RegisterClient(ap.ClientID, agent.PublicKey())
	// Interpose the agent's NIC receive path: while dropNotifs is set,
	// pushed notifications vanish in flight (droppedSeen counts them, so
	// the test can wait for the loss to have actually happened).
	var dropNotifs atomic.Bool
	var droppedSeen atomic.Uint64
	if err := d.Fabric.AttachHost(ap.Endpoint, func(pkt *wire.Packet) {
		if dropNotifs.Load() && isPush(pkt) {
			droppedSeen.Add(1)
			return
		}
		agent.HandlerFor(ap)(pkt)
	}); err != nil {
		t.Fatal(err)
	}

	sub, err := agent.Subscribe(wire.QueryReachableDestinations, ipConstraint(dst.HostIP), "")
	if err != nil {
		t.Fatal(err)
	}
	oldID := sub.ID

	// Lose the violation push in-network: delivery is re-enabled only
	// after the frame has demonstrably been dropped at the wire.
	dropNotifs.Store(true)
	mid := d.Topology.Switches()[1]
	drop := dropEntry(dst.HostIP)
	d.Fabric.Switch(mid).InstallDirect(drop)
	deadline := time.Now().Add(5 * time.Second)
	for droppedSeen.Load() == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("violation notification never reached the wire")
		}
		time.Sleep(time.Millisecond)
	}
	dropNotifs.Store(false)

	// The recovery push (Seq 2) lands on a client that never saw Seq 1.
	d.Fabric.Switch(mid).RemoveDirect(drop)
	n := waitNotification(t, sub.C)
	if n.Event != wire.NotifyRecovery || n.Seq != 2 {
		t.Fatalf("post-gap notification = %+v", n)
	}

	var ev client.GapEvent
	select {
	case ev = <-agent.Gaps():
	case <-time.After(5 * time.Second):
		t.Fatal("no gap event surfaced")
	}
	if ev.Err != nil {
		t.Fatalf("gap recovery failed: %v", ev.Err)
	}
	if ev.SubID != oldID || ev.NewSubID != oldID {
		t.Fatalf("gap event = %+v, want in-place session-resume resync of sub %d", ev, oldID)
	}
	if ev.MissedFrom != 1 || ev.MissedTo != 1 {
		t.Fatalf("missed range = [%d,%d], want [1,1]", ev.MissedFrom, ev.MissedTo)
	}
	if ev.Status != wire.StatusOK {
		t.Fatalf("resynchronized verdict = %v (%s)", ev.Status, ev.Detail)
	}

	// The server answered the resync from its retained verdict: the
	// subscription was never torn down or replaced.
	st := d.RVaaS.SubscriptionStats()
	if st.Active != 1 || st.Removed != 0 || st.Registered != 1 {
		t.Fatalf("session-resume resync churned server state: %+v", st)
	}
	if st.SessionResumes == 0 {
		t.Fatalf("no session resume served: %+v", st)
	}

	// Monitoring continues seamlessly on the same subscription with the
	// original sequence stream.
	d.Fabric.Switch(mid).InstallDirect(drop)
	n = waitNotification(t, sub.C)
	if n.Event != wire.NotifyViolation || n.SubID != oldID || n.Seq != 3 {
		t.Fatalf("post-recovery notification = %+v", n)
	}
}
