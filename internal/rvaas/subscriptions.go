package rvaas

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"

	"repro/internal/headerspace"
	"repro/internal/history"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/verifier"
	"repro/internal/wire"
)

// This file hosts the controller side of the standing-invariant engine:
// the continuous form of the paper's verification service. A one-shot
// query tells a client its invariant held at one instant; an adversary who
// reconfigures between two polls is never seen by the client. A
// subscription instead re-evaluates the invariant after every applied
// snapshot change and pushes every verdict transition to the client, signed
// — the monitoring loop the paper runs for its own interception rules,
// generalized to arbitrary client invariants.
//
// The engine itself — sharded subscription maps, the inverted
// switch → traversal-class footprint index, verdict commit, per-pass worker
// pools — lives in internal/verifier (verifier.Engine). The controller
// supplies the two domain callbacks the engine is parameterized over:
//
//   - Evaluate: run one invariant against the compiled network (this
//     file's evaluateInvariant, with isolation.go's cone cache), recording
//     the traversal footprint for incremental revalidation;
//   - Commit: publish one verdict transition — persistence append,
//     violation-log record, and a place in the pass's outbox, which leaves
//     as one signed batch per client session once the pass has ended
//     (onVerifierCommit, flushOutbox below).
//
// Re-verification stays incremental and indexed: an applied event dirties
// exactly the switches whose per-switch generation advanced; the pass
// assembled here (recheckSubscriptions) carries the dirty switches' drained
// per-switch rule deltas — refined with ingress-port restrictions
// when every changed rule carries one — and the engine's index dispatches
// it to the traversals whose recorded visit the delta overlaps.

// SubscriptionStats counts subscription-engine activity.
type SubscriptionStats struct {
	// Registered/Removed/Active count subscription lifecycle events.
	Registered uint64
	Removed    uint64
	Active     uint64
	// Rechecks counts re-verification passes that inspected the
	// subscription set (passes with an empty dirty set return early and are
	// not counted).
	Rechecks uint64
	// Evaluated counts invariant evaluations actually run (including the
	// initial evaluation at registration).
	Evaluated uint64
	// Revalidated counts invariants revalidated for free because their
	// footprint missed the dirty set.
	Revalidated uint64
	// IndexDispatched counts distinct invariants dispatched through the
	// inverted switch → traversal-class index.
	IndexDispatched uint64
	// DeltaSkipped counts, per dirty switch, the invariants indexed there
	// that were revalidated for free because no traversal of theirs
	// presented that switch anything its header-space delta overlaps.
	DeltaSkipped uint64
	// ClassTests counts the delta-vs-traversal-class overlap tests passes
	// ran, one per class at each dispatched switch.
	ClassTests uint64
	// SessionResumes counts served OpSessionResume requests (whole-session
	// resyncs after notification loss or a controller restart).
	SessionResumes uint64
	// Restored counts subscriptions rebuilt from the persistence store at
	// startup; PendingRestore is how many of them no pass has re-verified
	// yet.
	Restored       uint64
	PendingRestore int
	// Violations/Recoveries count verdict transitions.
	Violations uint64
	Recoveries uint64
	// NotificationsSent counts verdict transitions whose signed batch the
	// subscriber's switch session accepted whole; NotificationsDropped
	// counts those discarded because the delivery queue or that session was
	// saturated (clients recover via Seq gap detection). Each notifying
	// transition ends up in exactly one of the two.
	NotificationsSent    uint64
	NotificationsDropped uint64
	// NotifyBatches counts the signed batches behind NotificationsSent —
	// one enclave signature and one client verification each — so
	// NotificationsSent/NotifyBatches is the push path's fan-in.
	NotifyBatches uint64
	// ChainsDropped counts chunked client requests discarded before their
	// chain completed (evicted, torn or carrying a duplicated fragment).
	ChainsDropped uint64
	// IsoPointsSwept/IsoPointsReused count per-injection-point isolation
	// cone evaluations re-run versus served from the cone cache, over the
	// isolation invariants that were evaluated (one no pass dispatched
	// adds to neither).
	IsoPointsSwept  uint64
	IsoPointsReused uint64
}

// SubscriptionInfo is a read-only snapshot of one standing invariant.
type SubscriptionInfo struct {
	ID        uint64
	ClientID  uint64
	SessionID uint64
	Kind      wire.QueryKind
	Param     string
	Violated  bool
	Detail    string
	// Seq is the subscription's current notification sequence number.
	Seq uint64
	// FootprintSize is the number of distinct switches the invariant's
	// traversals consulted.
	FootprintSize int
}

// verifierEnv is the controller's implementation of verifier.Env: the
// domain half of the engine (invariant evaluation, commit fan-out).
type verifierEnv struct{ c *Controller }

func (ve verifierEnv) Evaluate(net *headerspace.Network, sub *verifier.Subscription, dirty []int, fullSweep, pooled bool) verifier.Verdict {
	return ve.c.evaluateInvariant(net, sub, dirty, fullSweep, pooled)
}

func (ve verifierEnv) Commit(t verifier.Transition) { ve.c.onVerifierCommit(t) }

// passBuild compiles the current snapshot (served from the compile cache)
// and pairs it with the snapshot id.
func (c *Controller) passBuild() (*headerspace.Network, uint64) {
	return c.snap.buildNetwork(c.topo), c.snap.snapshotID()
}

// reqOf recovers the query-plane requester view of a subscription anchor.
func reqOf(sub *verifier.Subscription) requesterInfo {
	return requesterInfo{sw: sub.Anchor.Switch, port: sub.Anchor.Port, mac: sub.Anchor.MAC, ip: sub.Anchor.IP}
}

// SubscriptionStats returns a copy of the engine counters.
func (c *Controller) SubscriptionStats() SubscriptionStats {
	fs := c.engine.Stats()
	return SubscriptionStats{
		Registered:           fs.Registered,
		Removed:              fs.Removed,
		Active:               uint64(fs.Active),
		Rechecks:             fs.Rechecks,
		Evaluated:            fs.Evaluated,
		Revalidated:          fs.Revalidated,
		IndexDispatched:      fs.IndexDispatched,
		DeltaSkipped:         fs.DeltaSkipped,
		ClassTests:           fs.ClassTests,
		SessionResumes:       c.svcStats.sessionResumes.Load(),
		Restored:             fs.Restored,
		PendingRestore:       fs.PendingRestore,
		Violations:           fs.Violations,
		Recoveries:           fs.Recoveries,
		NotificationsSent:    c.svcStats.notificationsSent.Load(),
		NotificationsDropped: c.svcStats.notificationsDrop.Load(),
		NotifyBatches:        c.svcStats.notifyBatches.Load(),
		ChainsDropped:        c.reasm.Dropped(),
		IsoPointsSwept:       fs.IsoPointsSwept,
		IsoPointsReused:      fs.IsoPointsReused,
	}
}

// Subscriptions lists the standing invariants in id order.
func (c *Controller) Subscriptions() []SubscriptionInfo {
	states := c.engine.List()
	out := make([]SubscriptionInfo, 0, len(states))
	for _, st := range states {
		out = append(out, SubscriptionInfo{
			ID: st.ID, ClientID: st.ClientID, SessionID: st.SessionID,
			Kind: st.Kind, Param: st.Param,
			Violated: st.Violated, Detail: st.Detail, Seq: st.Seq,
			FootprintSize: st.FootprintSize,
		})
	}
	return out
}

// ViolationLog exposes the recorded verdict transitions (read-only use).
func (c *Controller) ViolationLog() *history.ViolationLog { return c.vlog }

// Subscribe registers a standing invariant on behalf of clientID, anchored
// at the access point `at` (the client's network card, where notifications
// are injected). Supported kinds: reachable-destinations (violated when the
// scoped traffic can no longer leave the network anywhere), isolation,
// path-length, waypoint-avoidance (violated exactly when the one-shot
// query of the same kind would report StatusViolation). The invariant is
// evaluated immediately; the verdict is readable via Subscriptions and the
// returned id.
func (c *Controller) Subscribe(clientID uint64, kind wire.QueryKind, constraints []wire.FieldConstraint, param string, at topology.Endpoint) (uint64, error) {
	anchor := verifier.Anchor{Switch: at.Switch, Port: at.Port}
	if ap, ok := c.topo.AccessPointAt(at); ok {
		anchor.MAC, anchor.IP = ap.HostMAC, ap.HostIP
	}
	sub, err := verifier.NewSubscription(clientID, verifier.Source{}, kind, constraints, param, anchor)
	if err != nil {
		return 0, err
	}
	// Initial evaluation runs under the engine's run lock,
	// serialized with re-verification passes so the first verdict cannot
	// race a concurrent recheck of the same subscription. An initially-
	// violated invariant is recorded in the violation log but not pushed
	// in-band: the ack carries the verdict.
	c.engine.Register(sub, verifier.EvalContext{Build: c.passBuild, Workers: c.evalWorkers()})
	return sub.ID, nil
}

// Unsubscribe removes a standing invariant; it reports whether the id was
// registered to the given client.
func (c *Controller) Unsubscribe(clientID, id uint64) bool {
	if !c.engine.Unsubscribe(clientID, id) {
		return false
	}
	c.persistRemove(id)
	return true
}

// unsubscribeByNonce removes a client's subscription by its registration
// nonce — the cleanup path for a client whose subscribe ack was lost and
// who therefore never learned the SubID.
func (c *Controller) unsubscribeByNonce(clientID, nonce uint64) (uint64, bool) {
	id, ok := c.engine.UnsubscribeByNonce(clientID, nonce)
	if !ok {
		return 0, false
	}
	c.persistRemove(id)
	return id, true
}

// evaluateInvariant runs one standing invariant against the compiled
// network, capturing the footprint of every traversal it runs for future
// incremental revalidation. A reach, path-length or waypoint invariant is
// one traversal and always re-runs whole. An isolation invariant is one
// traversal per injection point: fullSweep forces all of them from scratch
// (registration, RevalidateAll, restore), otherwise only the points in
// dirty — the cones the pass's deltas can affect — re-run (isolation.go).
// pooled marks evaluation inside a multi-worker pass, where isolation
// sweeps must not nest a second fan-out. Called with the engine's run
// lock held (directly or from a pass's worker pool).
func (c *Controller) evaluateInvariant(net *headerspace.Network, sub *verifier.Subscription, dirty []int, fullSweep, pooled bool) verifier.Verdict {
	space := scopeSpace(sub.Constraints)
	at, port := headerspace.NodeID(sub.Anchor.Switch), headerspace.PortID(sub.Anchor.Port)
	switch sub.Kind {
	case wire.QueryReachableDestinations:
		results, fp := net.ReachFootprint(at, port, space, headerspace.ReachOptions{})
		eps := c.collectEndpoints(results, reqOf(sub))
		if len(eps) == 0 {
			return oneTraversal(true, "no reachable destinations for scoped traffic", fp)
		}
		return oneTraversal(false, fmt.Sprintf("%d reachable endpoint(s)", len(eps)), fp)
	case wire.QueryIsolation:
		return c.evaluateIsolation(net, sub, dirty, fullSweep, pooled)
	case wire.QueryPathLength:
		results, fp := net.ReachFootprint(at, port, space, headerspace.ReachOptions{KeepLoops: true})
		violated, detail := pathLengthVerdict(results, sub.Bound)
		return oneTraversal(violated, detail, fp)
	case wire.QueryWaypointAvoidance:
		results, fp := net.ReachFootprint(at, port, space, headerspace.ReachOptions{})
		violated, detail := c.waypointVerdict(results, sub.Param)
		return oneTraversal(violated, detail, fp)
	}
	return oneTraversal(false, "unsupported kind", headerspace.NewFootprint())
}

// oneTraversal is the verdict of an invariant evaluated by a single
// injection at its anchor.
func oneTraversal(violated bool, detail string, fp headerspace.Footprint) verifier.Verdict {
	return verifier.Verdict{Violated: violated, Detail: detail, Ran: []verifier.TraversalFootprint{{FP: fp}}}
}

// onVerifierCommit is the engine's commit fan-out, called OUTSIDE every
// engine lock, only on a subscription's first
// commit or on a verdict transition. Durable state (spec + verdict + seq)
// is appended on both; the violation log and the in-band push fire only on
// a transition. The verdict fields ride in the Transition (captured under
// the shard lock), so the record can never mix two commits.
func (c *Controller) onVerifierCommit(t verifier.Transition) {
	// The commit tap sits between the engine and everything client-visible
	// (violation log, persistence, notifications): an adversarial campaign
	// can corrupt the transition here to model a lying verdict stream and
	// assert the differential oracle flags it.
	c.tapTransition(&t)
	sub := t.Sub
	if c.persist != nil {
		c.persistUpsert(recordOfTransition(t))
	}
	if !t.Changed {
		return
	}

	item := wire.NotifyItem{
		Event:  wire.NotifyRecovery,
		Kind:   sub.Kind,
		Status: wire.StatusOK,
		SubID:  sub.ID,
		Nonce:  sub.Nonce,
		Seq:    t.Seq,
		Detail: t.Detail,
	}
	event := history.EventRecovery
	if t.Violated {
		event = history.EventViolation
		item.Event, item.Status = wire.NotifyViolation, wire.StatusViolation
	}
	c.vlog.Append(history.Violation{
		At:         c.cfg.Clock(),
		Event:      event,
		SubID:      sub.ID,
		ClientID:   sub.ClientID,
		Kind:       sub.Kind.String(),
		Detail:     t.Detail,
		SnapshotID: t.SnapshotID,
	})
	if !t.Notify || (sub.Anchor.MAC == 0 && sub.Anchor.IP == 0) {
		return // initial verdict (the ack carries it), or no in-band delivery point
	}
	// Only a re-verification pass notifies, and recheckSubscriptions flushes
	// the outbox before it lets the next pass start: whatever is in it
	// belongs to this pass and shares its snapshot id.
	key := pushKey{anchor: sub.Anchor, session: sub.SessionID}
	c.outboxMu.Lock()
	c.outbox[key] = append(c.outbox[key], item)
	c.outboxSnap = t.SnapshotID
	c.outboxMu.Unlock()
}

// pushKey names one push stream: a client session's subscriptions at one
// access point. Its transitions of a pass leave as one signed batch.
type pushKey struct {
	anchor  verifier.Anchor
	session uint64
}

// notifyQueueCap bounds the delivery queue in queued notifications (batch
// items), which is what its memory grows with.
const notifyQueueCap = 1024

// flushOutbox turns the transitions the finished pass committed into one
// signed batch per push stream and hands each to the asynchronous delivery
// queue. Items are sorted by SubID, so the signed bytes do not depend on
// which pool worker committed first. The enqueue never
// blocks — a wedged or dead subscriber can stall neither a pass nor a run
// lock: a batch is admitted when it fits the queue's notification bound or
// the queue is empty (so one oversized batch still gets through), and is
// dropped whole otherwise. A dropped batch surfaces at the client as a Seq
// gap on the stream's next push, which triggers its session-resume recovery.
// Per-subscription ordering holds because a subscription commits at most
// once per pass, passes flush in order (recheckMu) and one notifier drains
// the queue. Called with recheckMu held, after engine.Run returned.
func (c *Controller) flushOutbox() {
	c.outboxMu.Lock()
	outbox, snapID := c.outbox, c.outboxSnap
	if len(outbox) > 0 {
		c.outbox = make(map[pushKey][]wire.NotifyItem)
	}
	c.outboxMu.Unlock()

	for key, items := range outbox {
		sort.Slice(items, func(i, j int) bool { return items[i].SubID < items[j].SubID })
		b := &wire.NotifyBatch{Version: wire.CurrentVersion, SnapshotID: snapID, Items: items}
		b.Signature, b.Quote = c.enclave.SignAttested(b.SigningBytes())
		frames, err := wire.ChunkEnvelope(&wire.Envelope{
			Version: wire.EnvelopeVersion,
			Op:      wire.OpNotifyBatch,
			// The continuation id of the chain: the signature's leading
			// bytes are as good as random and never repeat, even across a
			// restart (a new enclave key), so no two chains of this
			// controller collide in a client's reassembler.
			CorrelationID: binary.BigEndian.Uint64(b.Signature),
			SessionID:     key.session,
			Body:          b.Marshal(),
		}, 0)
		if err != nil {
			c.svcStats.notificationsDrop.Add(uint64(len(items))) // past the chain-length bound
			continue
		}
		job := notifyJob{sw: key.anchor.Switch, port: key.anchor.Port, items: int64(len(items)),
			frames: make([]*wire.Packet, 0, len(frames))}
		for _, fr := range frames {
			job.frames = append(job.frames, wire.NewEnvelopeReplyPacket(key.anchor.MAC, key.anchor.IP, fr))
		}
		// recheckMu makes this the only producer, so the bound check cannot
		// race another admission; the notifier only ever lowers the count.
		if queued := c.notifyQueued.Load(); queued != 0 && queued+job.items > notifyQueueCap {
			c.svcStats.notificationsDrop.Add(uint64(job.items))
			continue
		}
		c.notifyQueued.Add(job.items)
		select {
		case c.notifyQ <- job: // counted by notifier, once the session took it
		default:
			c.notifyQueued.Add(-job.items)
			c.svcStats.notificationsDrop.Add(uint64(job.items))
		}
	}
}

// notifyJob is one queued push: the frames of one signed batch, in chain
// order, and the number of notifications they carry.
type notifyJob struct {
	sw     topology.SwitchID
	port   topology.PortNo
	frames []*wire.Packet
	items  int64
}

// notifier drains the delivery queue onto switch sessions with non-blocking
// sends: a switch whose control channel is saturated (e.g. its serve loop is
// stuck behind a wedged host) costs a dropped batch, never a stalled engine.
// A chain the session refuses at some frame stops there — the rest could not
// complete it — and all its notifications count as dropped.
func (c *Controller) notifier() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case j := <-c.notifyQ:
			c.notifyQueued.Add(-j.items)
			sent := true
			for _, pkt := range j.frames {
				if sent = c.trySendPacketOut(j.sw, j.port, pkt); !sent {
					break
				}
			}
			if sent {
				c.svcStats.notificationsSent.Add(uint64(j.items))
				c.svcStats.notifyBatches.Add(1)
			} else {
				c.svcStats.notificationsDrop.Add(uint64(j.items))
			}
		}
	}
}

// trySendPacketOut injects a frame at a switch without ever blocking on the
// session's send buffer.
func (c *Controller) trySendPacketOut(sw topology.SwitchID, outPort topology.PortNo, pkt *wire.Packet) bool {
	c.mu.Lock()
	sess := c.sessions[sw]
	c.mu.Unlock()
	if sess == nil {
		return false
	}
	sent, err := sess.conn.TrySend(&openflow.PacketOut{
		XID:     c.xid(),
		InPort:  openflow.AnyPort,
		Actions: []openflow.Action{openflow.Output(uint32(outPort))},
		Data:    pkt.Marshal(),
	})
	return sent && err == nil
}

// evalWorkers resolves the configured evaluation fan-out (GOMAXPROCS by
// default).
func (c *Controller) evalWorkers() int {
	workers := c.cfg.RecheckParallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return workers
}

// RecheckNow runs one incremental re-verification pass synchronously:
// the dirty switches since the last pass select the affected subscription
// buckets from the inverted index and only those invariants re-run, fanned across the worker pool. The
// background worker calls this after every applied snapshot change;
// experiments and tests call it directly.
func (c *Controller) RecheckNow() { c.recheckSubscriptions(false) }

// RevalidateAll re-evaluates every standing invariant from scratch,
// ignoring footprints and cone caches: the exhaustive reference every
// differential (campaign oracle, E12–E14, rvbench's end-of-run gate)
// compares the incremental engine against.
func (c *Controller) RevalidateAll() { c.recheckSubscriptions(true) }

// recheckSubscriptions assembles one re-verification pass and hands it to
// the engine. recheckMu serializes pass assembly so the generation baseline
// diff and the drained deltas stay consistent (one drain per pass); the
// engine's run lock then serializes the evaluations themselves.
func (c *Controller) recheckSubscriptions(force bool) {
	c.recheckMu.Lock()
	defer c.recheckMu.Unlock()

	// The drained deltas describe exactly the changes between the previous
	// pass's generation baseline and this one (one lock acquisition covers
	// both), so dirty-set membership and delta content can never disagree.
	_, gens, deltas := c.snap.generationsAndDeltas()
	var dirty []headerspace.NodeID
	for sw, g := range gens {
		if c.lastGen[sw] != g {
			dirty = append(dirty, headerspace.NodeID(sw))
		}
	}
	c.lastGen = gens
	if !force && len(dirty) == 0 && !c.engine.HasPendingRestore() {
		return
	}

	// Each dirty switch maps to its pending rule delta. Dirty switches whose
	// delta is semantically empty — a fully shadowed insert, meter-only
	// churn, interception-rule churn — are dropped from dispatch entirely:
	// no packet's forwarding behavior changed, so no invariant can flip. A
	// dirty switch with no drained delta (engine attached after store churn)
	// conservatively widens to the full header space on any port. A forced
	// pass consults no delta at all.
	var deltaByNode map[headerspace.NodeID]headerspace.Delta
	if !force {
		deltaByNode = make(map[headerspace.NodeID]headerspace.Delta, len(dirty))
		for _, n := range dirty {
			d, ok := deltas[topology.SwitchID(n)]
			if !ok {
				d = headerspace.Delta{Space: headerspace.FullSpace(wire.HeaderWidth)}
			}
			if !d.Space.IsEmpty() {
				deltaByNode[n] = d
			}
		}
	}

	c.engine.Run(verifier.Pass{
		Build:   c.passBuild,
		Deltas:  deltaByNode,
		Force:   force,
		Workers: c.evalWorkers(),
	})
	c.flushOutbox()
}

// pokeSubscriptions nudges the background worker; called after every
// applied snapshot change. Non-blocking: a pending nudge coalesces bursts.
func (c *Controller) pokeSubscriptions() {
	select {
	case c.subKick <- struct{}{}:
	default:
	}
}

// subscriptionWorker drains recheck nudges until the controller closes.
func (c *Controller) subscriptionWorker() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-c.subKick:
			c.recheckSubscriptions(false)
		}
	}
}
