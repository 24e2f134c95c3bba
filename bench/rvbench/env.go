package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/deploy"
	"repro/internal/openflow"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/verifier"
	"repro/internal/wire"
)

// lateLimit is the repo's beat-miss contract. A probe notification later
// than this is counted in latency_over_400ms and noted; it has arrived and
// verified, so it is a latency, not a failed operation.
const lateLimit = 400 * time.Millisecond

// deliveryGrace bounds the wait for notifications still in flight when a
// window (or the final drain) ends.
const deliveryGrace = 2 * time.Second

// env is one deployment under measurement: the running system, the in-band
// probe subscriptions whose notifications time the event path, and the
// bookkeeping the taps and receivers share. Everything in it is driven
// through the deployment's public surface only.
type env struct {
	d     *deploy.Deployment
	aps   []topology.AccessPoint
	store *rvaas.FileStore // sub-churn only
	dir   string           // store directory, removed on close
	epoch time.Time        // zero point of every recorded timestamp

	probes     []*probe
	probeBySub map[uint64]*probe // read-only after setup

	// registered is the standing-invariant population after setup (probes
	// included); initial is each invariant's verdict at that point.
	registered int
	initial    map[uint64]bool

	tapped     bool // the taps are installed: events register for them
	tapMu      sync.Mutex
	pendingTap map[tapKey]*event
	// lastTable is the most recent tapped flow table, kept for the direct
	// compile measurement.
	lastTable []openflow.FlowEntry
	lastPorts []uint32

	// problems are integrity failures: any one makes the run incorrect.
	// notes explain operations counted as failed (late, missing, retried).
	problemMu sync.Mutex
	problems  []string
	notes     []string
	// lastNote is the most recent verified probe notification, kept for
	// the direct wire and enclave measurements.
	lastNote atomic.Pointer[wire.Notification]
}

type tapKey struct {
	sw  topology.SwitchID
	seq uint64
}

// probe is one in-band standing invariant (reachability from an access
// point to its neighbour) registered through the real client agent. Its
// verified notifications are what "verdict in the client's hands" means.
type probe struct {
	sub      *client.Subscription
	src, dst topology.AccessPoint

	mu sync.Mutex
	// last is the probe's most recent rule change. Changes to one probe
	// are at least minInstalled apart, so a notification belongs to it.
	last     *event
	lastSeq  uint64
	lastKind wire.NotifyEvent
}

// event is one rule change the generator applies to a switch.
type event struct {
	id      int
	sw      topology.SwitchID
	entry   openflow.FlowEntry
	install bool
	probe   *probe // nil for verdict-neutral events
	due     time.Duration

	// Timestamps in nanoseconds since env.epoch; 0 means not observed.
	dueAt, call        int64
	tap, commit, recvd atomic.Int64
}

func (e *env) since() int64 { return int64(time.Since(e.epoch)) }

// maxRemarks bounds each of the problem and note lists of a report.
const maxRemarks = 20

func (e *env) problemf(format string, args ...any) {
	e.problemMu.Lock()
	if len(e.problems) < maxRemarks {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
	e.problemMu.Unlock()
}

// opError records a failed operation: a timeout is a failure to explain,
// anything else (a reply that does not verify, a refusal) is wrong output.
func (e *env) opError(op string, err error) {
	if errors.Is(err, client.ErrTimeout) {
		e.notef("%s: %v", op, err)
	} else {
		e.problemf("%s: %v", op, err)
	}
}

func (e *env) notef(format string, args ...any) {
	e.problemMu.Lock()
	if len(e.notes) < maxRemarks {
		e.notes = append(e.notes, fmt.Sprintf(format, args...))
	}
	e.problemMu.Unlock()
}

// newEnv brings a deployment up with protocol-v2 agents over in-memory
// control channels. With persist, the standing-invariant set is stored in a
// file-backed store under dir.
func newEnv(topo *topology.Topology, persist bool) (*env, error) {
	e := &env{
		epoch:      time.Now(),
		probeBySub: make(map[uint64]*probe),
		pendingTap: make(map[tapKey]*event),
	}
	// Neither timeout is ever waited out by a healthy run: an authentication
	// round ends with its last reply, a request with its response. They are
	// set well above the longest stall a shared host has shown, so that a
	// stall lengthens a latency instead of turning an answer into an error.
	opt := deploy.Options{
		AgentProtocol:        wire.EnvelopeVersion,
		AuthTimeout:          1500 * time.Millisecond,
		AgentResponseTimeout: 5 * time.Second,
	}
	if persist {
		dir, err := os.MkdirTemp("", "rvbench-store-")
		if err != nil {
			return nil, err
		}
		store, err := rvaas.OpenFileStore(rvaas.DefaultStorePath(dir))
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		e.dir, e.store, opt.Persist = dir, store, store
	}
	d, err := deploy.New(topo, opt)
	if err != nil {
		e.close()
		return nil, err
	}
	e.d, e.aps = d, topo.AccessPoints()
	return e, nil
}

func (e *env) close() {
	if e.d != nil {
		e.d.Close()
	}
	if e.store != nil {
		e.store.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

func dstConstraint(ip uint32) wire.FieldConstraint {
	return wire.FieldConstraint{Field: wire.FieldIPDst, Value: uint64(ip), Mask: 0xFFFFFFFF}
}

// addProbes registers one in-band reachability probe per adjacent
// access-point pair (skipping pair index skip, -1 for none) and hooks its
// receive path.
func (e *env) addProbes(skip int) error {
	for i := 0; i+1 < len(e.aps); i++ {
		if i == skip {
			continue
		}
		src, dst := e.aps[i], e.aps[i+1]
		ag := e.d.Agent(src.ClientID)
		sub, err := ag.Subscribe(wire.QueryReachableDestinations, []wire.FieldConstraint{dstConstraint(dst.HostIP)}, "")
		if err != nil {
			return fmt.Errorf("probe %d: %w", i, err)
		}
		if sub.InitialStatus != wire.StatusOK {
			return fmt.Errorf("probe %d starts %s: %s", i, sub.InitialStatus, sub.InitialDetail)
		}
		// A probe starts green, as if its last notification was a recovery.
		p := &probe{sub: sub, src: src, dst: dst, lastKind: wire.NotifyRecovery}
		e.probes = append(e.probes, p)
		e.probeBySub[sub.ID] = p
		// The probe's notifications are taken off Subscription.C on the
		// goroutine that delivered the frame, as soon as the agent has
		// verified it. A receiver goroutine of the benchmark's own would
		// be scheduled only once that goroutine blocks or another core
		// steals it — up to a whole fan-out burst later, in regimes that
		// last seconds — and that delay is the harness's, not the system's.
		handle := ag.HandlerFor(src)
		if err := e.d.Fabric.AttachHost(src.Endpoint, func(pkt *wire.Packet) {
			handle(pkt)
			e.receive(p)
		}); err != nil {
			return err
		}
	}
	return nil
}

// receive stamps and checks the notifications waiting on one probe's
// channel. The agent has already verified signature and attestation
// before delivering. Per probe the server's Seq must advance by exactly
// one and violations and recoveries must alternate; the notification is
// then attributed to the probe's latest rule change if it is of the kind
// that change calls for.
func (e *env) receive(p *probe) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		var n *wire.Notification
		select {
		case n = <-p.sub.C:
		default:
		}
		if n == nil { // nothing waiting, or the agent has closed the channel
			return
		}
		now := e.since()
		if n.Seq != p.lastSeq+1 {
			e.problemf("probe sub %d: seq %d after %d", p.sub.ID, n.Seq, p.lastSeq)
		}
		if n.Event == p.lastKind || (n.Event != wire.NotifyViolation && n.Event != wire.NotifyRecovery) {
			e.problemf("probe sub %d seq %d: %s after %s", p.sub.ID, n.Seq, n.Event, p.lastKind)
		}
		p.lastSeq, p.lastKind = n.Seq, n.Event
		ev := p.last
		if ev == nil || ev.install != (n.Event == wire.NotifyViolation) || ev.recvd.Load() != 0 {
			// Later than the next change to the same probe: the change it
			// answers is already counted as failed.
			e.notef("probe sub %d seq %d: %s matches no outstanding rule change", p.sub.ID, n.Seq, n.Event)
			continue
		}
		ev.recvd.Store(now)
		e.lastNote.Store(n)
	}
}

// apply performs one rule change on its switch, first registering what the
// taps and the probe's receiver need to attribute the effects to it.
func (e *env) apply(ev *event) {
	sw := e.d.Fabric.Switch(ev.sw)
	// The generator is the only writer of this switch's table, so the
	// change emits exactly the next flow-monitor sequence number.
	if e.tapped {
		key := tapKey{ev.sw, sw.TableSeq() + 1}
		e.tapMu.Lock()
		e.pendingTap[key] = ev
		e.tapMu.Unlock()
	}
	if p := ev.probe; p != nil {
		p.mu.Lock()
		p.last = ev
		p.mu.Unlock()
	}
	ev.call = e.since()
	if ev.install {
		sw.InstallDirect(ev.entry)
	} else {
		sw.RemoveDirect(ev.entry)
	}
}

// setTaps installs (on=true) or removes the public controller hooks that
// stamp the ingest→verify and verify→notify boundaries of each event.
func (e *env) setTaps(on bool) {
	e.tapped = on
	if !on {
		e.d.RVaaS.SetEventTap(nil)
		e.d.RVaaS.SetCommitTap(nil)
		return
	}
	e.d.RVaaS.SetEventTap(func(te rvaas.TapEvent) {
		now := e.since()
		key := tapKey{te.Switch, te.Seq}
		e.tapMu.Lock()
		ev := e.pendingTap[key]
		delete(e.pendingTap, key)
		e.lastTable, e.lastPorts = te.Entries, te.Ports
		e.tapMu.Unlock()
		if ev != nil {
			ev.tap.Store(now)
		}
	})
	e.d.RVaaS.SetCommitTap(func(t *verifier.Transition) {
		if !t.Changed {
			return
		}
		p := e.probeBySub[t.Sub.ID]
		if p == nil {
			return
		}
		now := e.since()
		p.mu.Lock()
		ev := p.last
		p.mu.Unlock()
		if ev != nil && ev.install == t.Violated {
			ev.commit.CompareAndSwap(0, now)
		}
	})
}

// awaitDelivery waits until every probe event in evs has been received or
// the grace period ends.
func awaitDelivery(evs []*event) {
	deadline := time.Now().Add(deliveryGrace)
	for _, ev := range evs {
		for ev.probe != nil && ev.recvd.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

// awaitPrevious waits, within the same grace, until the verdict of p's
// previous rule change has been received.
func awaitPrevious(p *probe) {
	p.mu.Lock()
	prev := p.last
	p.mu.Unlock()
	if prev != nil {
		awaitDelivery([]*event{prev})
	}
}

// quiesce waits until the controller has ingested every switch's latest
// table change and no notification is outstanding, so counters and
// verdicts read afterwards are final.
func (e *env) quiesce() {
	deadline := time.Now().Add(deliveryGrace)
	for _, id := range e.d.Topology.Switches() {
		sw := e.d.Fabric.Switch(id)
		for e.d.RVaaS.SnapshotSeq(id) < sw.TableSeq() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	e.d.RVaaS.RecheckNow()
}

// captureVerdicts records the population and each invariant's verdict.
func (e *env) captureVerdicts() {
	subs := e.d.RVaaS.Subscriptions()
	e.registered = len(subs)
	e.initial = make(map[uint64]bool, len(subs))
	for _, s := range subs {
		e.initial[s.ID] = s.Violated
	}
}

// checkVerdicts is the end-of-workload gate: a from-scratch re-evaluation
// of every invariant must flip nothing, every invariant must hold its
// set-up verdict again, and every probe must be green.
func (e *env) checkVerdicts() {
	e.quiesce()
	before := e.d.RVaaS.SubscriptionStats()
	e.d.RVaaS.RevalidateAll()
	after := e.d.RVaaS.SubscriptionStats()
	if flips := (after.Violations - before.Violations) + (after.Recoveries - before.Recoveries); flips != 0 {
		e.problemf("RevalidateAll flipped %d verdicts the incremental engine had missed", flips)
	}
	subs := e.d.RVaaS.Subscriptions()
	if len(subs) != e.registered {
		e.problemf("population is %d, want %d", len(subs), e.registered)
	}
	for _, s := range subs {
		want, known := e.initial[s.ID]
		if !known {
			e.problemf("subscription %d was not part of the set-up population", s.ID)
		} else if s.Violated != want {
			e.problemf("subscription %d ends violated=%v, set up as %v: %s", s.ID, s.Violated, want, s.Detail)
		}
		if e.probeBySub[s.ID] != nil && s.Violated {
			e.problemf("probe %d ends violated: %s", s.ID, s.Detail)
		}
	}
}
