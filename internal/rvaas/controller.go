// Package rvaas implements the paper's primary contribution: the
// Routing-Verification-as-a-Service controller. It is a stand-alone,
// enclave-hosted OpenFlow controller that (1) monitors switch
// configurations passively and at randomized active-poll times, (2)
// verifies routing properties in the logical space using header space
// analysis, and (3) runs in-band authentication tests against the endpoints
// the logical analysis discovers, closing the loop between configuration
// and physical reality (paper §IV).
package rvaas

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/enclave"
	"repro/internal/headerspace"
	"repro/internal/history"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/verifier"
	"repro/internal/wire"
)

// CodeIdentity is the canonical code identity string measured by the
// enclave; clients pin MeasurementOf(CodeIdentity).
const CodeIdentity = "rvaas-controller-v1"

// CookieRVaaS marks RVaaS's own interception rules so it can detect
// tampering with them.
const CookieRVaaS uint64 = 0x5AA5_0000_0000

// interceptPriority outranks everything else so client messages always
// reach RVaaS.
const interceptPriority uint16 = 0xFFF0

// Config tunes a Controller.
type Config struct {
	// Topology is the trusted wiring plan (paper §III: "internal network
	// ports are known, and follow a well-defined wiring plan").
	Topology *topology.Topology
	// Platform hosts the enclave.
	Platform *enclave.Platform
	// PollInterval is the mean period of active state polls; 0 disables the
	// background poller (PollOnce can still be called manually).
	PollInterval time.Duration
	// RandomizePolls draws each inter-poll gap uniformly from
	// [PollInterval/2, 3*PollInterval/2] ("the latter however needs to
	// happen at random times, which are hard to guess for the adversary",
	// §IV-A). When false, polls are strictly periodic — the ablation the
	// E5 experiment measures.
	RandomizePolls bool
	// AuthTimeout bounds in-band authentication collection per query.
	AuthTimeout time.Duration
	// HistoryDepth is the number of snapshots retained.
	HistoryDepth int
	// Seed makes the poll-time randomness reproducible in experiments.
	Seed int64
	// Clock is injectable for simulated-time experiments; defaults to
	// time.Now.
	Clock func() time.Time
	// ManualRecheck disables the background subscription worker: standing
	// invariants are only re-verified by explicit RecheckNow /
	// RevalidateAll calls. Experiments use this to measure re-check latency
	// deterministically.
	ManualRecheck bool
	// RecheckParallelism is the worker count one subscription re-check pass
	// fans independent invariant evaluations across; <= 0 means GOMAXPROCS.
	RecheckParallelism int
	// HeartbeatInterval enables per-session liveness probing: the controller
	// sends an echo request on every attached switch channel at this period
	// and detaches the session after HeartbeatMisses consecutive unanswered
	// probes. 0 disables probing — in-process channels surface peer death as
	// a transport close, but a UDP channel to a separately-running switchd
	// process has no such signal, so multi-process deployments set this.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is the consecutive-miss detach threshold; <= 0 means 3.
	HeartbeatMisses int
	// Persist durably stores the standing-invariant set (client key,
	// invariant spec, anchor binding, session, last verdict/seq). When
	// set, every registration and verdict transition is appended to the
	// store, and New restores the full subscription set from it — a
	// restarted controller re-verifies every restored invariant and
	// re-issues current verdicts instead of silently dropping the tenant's
	// standing monitoring. The caller owns (and closes) the store.
	Persist SubscriptionStore
}

func (c Config) withDefaults() Config {
	if c.AuthTimeout == 0 {
		c.AuthTimeout = 200 * time.Millisecond
	}
	if c.HistoryDepth == 0 {
		c.HistoryDepth = 256
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	return c
}

// Stats counts controller activity for the monitoring experiments.
type Stats struct {
	PassiveEvents   uint64
	Resyncs         uint64
	Detaches        uint64
	Reattaches      uint64
	ActivePolls     uint64
	QueriesServed   uint64
	AuthRequested   uint64
	AuthReceived    uint64
	PacketIns       uint64
	ResponsesSigned uint64
}

// Controller is one RVaaS instance.
type Controller struct {
	cfg     Config
	enclave *enclave.Enclave
	topo    *topology.Topology
	snap    *snapshotStore
	hist    *history.Store
	vlog    *history.ViolationLog
	engine  *verifier.Engine
	subKick chan struct{}
	// notifyQ carries signed push batches to the notifier; notifyQueued is
	// the number of notifications in it, which is what the queue bounds
	// (notifyQueueCap). Every job carries at least one notification, so a
	// channel of that many jobs never fills first.
	notifyQ      chan notifyJob
	notifyQueued atomic.Int64
	rng          *rand.Rand
	persist      SubscriptionStore
	// reasm rebuilds logical envelopes from OpChunk continuation
	// frames before dispatch (chains keyed by requester MAC⊕IP).
	reasm *wire.Reassembler

	// tapMu guards the adversarial-testing taps (tap.go): eventTap observes
	// every committed snapshot mutation, commitTap intercepts (and may
	// corrupt) verdict transitions before they reach the violation log.
	tapMu     sync.RWMutex
	eventTap  func(TapEvent)
	commitTap func(*verifier.Transition)

	// recheckMu serializes recheck-pass assembly (generation diff + delta
	// drain); lastGen is the per-switch generation baseline of the last
	// pass, guarded by recheckMu.
	recheckMu sync.Mutex
	lastGen   map[topology.SwitchID]uint64

	// outbox collects the running pass's notifying transitions per push
	// stream (written by the pass's pool workers, flushed
	// by recheckSubscriptions when the pass ends); outboxSnap is that
	// pass's snapshot id. Both guarded by outboxMu.
	outboxMu   sync.Mutex
	outbox     map[pushKey][]wire.NotifyItem
	outboxSnap uint64

	// svcStats are service-plane counters outside the verifier engine.
	svcStats struct {
		sessionResumes    atomic.Uint64
		notificationsSent atomic.Uint64
		notificationsDrop atomic.Uint64
		notifyBatches     atomic.Uint64
	}
	// svc is the client-facing service stack (auth gate over the core)
	// the packet transport dispatches to.
	svc authGate

	mu       sync.Mutex
	sessions map[topology.SwitchID]*session
	// resyncing / evHigh dedupe event-gap resyncs per switch; staleEvents /
	// stalePolls count consecutive staleness evidence for sequence-
	// regression recovery (monitor.go).
	resyncing   map[topology.SwitchID]bool
	evHigh      map[topology.SwitchID]uint64
	staleEvents map[topology.SwitchID]int
	stalePolls  map[topology.SwitchID]int
	// wasAttached marks switches that held a session at some point; a
	// re-attach of such a switch force-resyncs (the restarted process's
	// sequence counter regressed, and the switch is authoritative again).
	wasAttached map[topology.SwitchID]bool
	clients     map[uint64]ed25519.PublicKey
	pending     map[uint64]*pendingQuery // by query nonce
	waiters     map[waiterKey]chan openflow.Message
	nextXID     uint32
	stats       Stats
	peers       map[string]Federation
	peerEntries map[string]topology.Endpoint
	peerNames   map[string]string
	// probe bookkeeping for active wiring verification.
	probeExpect  map[uint64]topology.Endpoint
	probeConfirm map[uint64]topology.Endpoint
	probeNext    uint64

	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// waiterKey names one pending request: XIDs are only unique per direction,
// so a reply is matched to its waiter by the switch that sent it as well.
type waiterKey struct {
	sw  topology.SwitchID
	xid uint32
}

type session struct {
	sw   topology.SwitchID
	conn *openflow.SecureConn
	done chan struct{}
}

// New creates a controller and launches its enclave.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Topology == nil {
		return nil, errors.New("rvaas: config needs a topology")
	}
	if cfg.Platform == nil {
		return nil, errors.New("rvaas: config needs an enclave platform")
	}
	encl, err := cfg.Platform.Launch([]byte(CodeIdentity))
	if err != nil {
		return nil, fmt.Errorf("rvaas: launch enclave: %w", err)
	}
	c := &Controller{
		cfg:          cfg,
		persist:      cfg.Persist,
		enclave:      encl,
		topo:         cfg.Topology,
		snap:         newSnapshotStore(),
		hist:         history.NewStore(cfg.HistoryDepth),
		vlog:         history.NewViolationLog(4 * cfg.HistoryDepth),
		lastGen:      make(map[topology.SwitchID]uint64),
		reasm:        wire.NewReassembler(0),
		subKick:      make(chan struct{}, 1),
		notifyQ:      make(chan notifyJob, notifyQueueCap),
		outbox:       make(map[pushKey][]wire.NotifyItem),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		sessions:     make(map[topology.SwitchID]*session),
		resyncing:    make(map[topology.SwitchID]bool),
		evHigh:       make(map[topology.SwitchID]uint64),
		staleEvents:  make(map[topology.SwitchID]int),
		stalePolls:   make(map[topology.SwitchID]int),
		wasAttached:  make(map[topology.SwitchID]bool),
		clients:      make(map[uint64]ed25519.PublicKey),
		pending:      make(map[uint64]*pendingQuery),
		waiters:      make(map[waiterKey]chan openflow.Message),
		peers:        make(map[string]Federation),
		peerEntries:  make(map[string]topology.Endpoint),
		peerNames:    make(map[string]string),
		probeExpect:  make(map[uint64]topology.Endpoint),
		probeConfirm: make(map[uint64]topology.Endpoint),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	c.engine = verifier.New(verifierEnv{c})
	c.svc = authGate{core: coreService{c}, c: c}
	if cfg.Persist != nil {
		if err := c.restoreSubscriptions(); err != nil {
			return nil, fmt.Errorf("rvaas: restore subscriptions: %w", err)
		}
	}
	return c, nil
}

// PublicKey returns the enclave-held response signing key.
func (c *Controller) PublicKey() ed25519.PublicKey { return c.enclave.PublicKey() }

// KeyQuote returns the attestation quote binding the signing key to the
// RVaaS code measurement.
func (c *Controller) KeyQuote() *enclave.Quote { return c.enclave.KeyQuote() }

// Measurement returns the enclave measurement clients should pin.
func Measurement() enclave.Measurement {
	return enclave.MeasurementOf([]byte(CodeIdentity))
}

// RegisterClient records a client's public key for auth-reply verification.
func (c *Controller) RegisterClient(id uint64, pub ed25519.PublicKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clients[id] = append(ed25519.PublicKey(nil), pub...)
}

// Stats returns a copy of the activity counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// History exposes the snapshot history (read-only use).
func (c *Controller) History() *history.Store { return c.hist }

// SnapshotID returns the current configuration version.
func (c *Controller) SnapshotID() uint64 { return c.snap.snapshotID() }

// CompiledNetwork returns the header-space network compiled from the
// current snapshot, served from the compile cache when the snapshot has not
// changed since the last call. The returned network is shared and must be
// treated as read-only (it is safe for concurrent Reach/ReachAll callers).
func (c *Controller) CompiledNetwork() *headerspace.Network {
	return c.snap.buildNetwork(c.topo)
}

// CompileCacheStats returns the compiled-network cache counters (hits,
// rebuilds, per-switch recompilations).
func (c *Controller) CompileCacheStats() CompileStats {
	return c.snap.compileStats()
}

// Attach connects the controller to one switch over an established secure
// channel. It subscribes to flow-monitor events, installs the in-band
// interception rules, performs an initial full-state sync, and starts the
// session reader (plus the liveness prober when heartbeats are enabled).
//
// Attaching a switch whose previous session was lost (process death, channel
// failure) is a re-attach: the initial sync is a forced resync, because the
// restarted switch's sequence counter regressed and its live state — not the
// controller's pre-detach view — is authoritative.
func (c *Controller) Attach(sw topology.SwitchID, conn *openflow.SecureConn) error {
	sess := &session{sw: sw, conn: conn, done: make(chan struct{})}
	c.mu.Lock()
	if _, dup := c.sessions[sw]; dup {
		c.mu.Unlock()
		return fmt.Errorf("rvaas: switch %d already attached", sw)
	}
	reattach := c.wasAttached[sw]
	c.wasAttached[sw] = true
	c.sessions[sw] = sess
	if reattach {
		c.stats.Reattaches++
		// The dead process's staleness evidence is meaningless for the new
		// one, and the old event high-water mark would manufacture a gap out
		// of the restarted switch's low sequence numbers.
		c.staleEvents[sw] = 0
		c.stalePolls[sw] = 0
		c.evHigh[sw] = 0
	}
	c.mu.Unlock()

	if err := conn.Send(&openflow.Hello{XID: c.xid()}); err != nil {
		return fmt.Errorf("rvaas: hello to %d: %w", sw, err)
	}
	if err := conn.Send(&openflow.FlowMonitorRequest{XID: c.xid(), MonitorID: uint32(sw)}); err != nil {
		return fmt.Errorf("rvaas: monitor subscribe %d: %w", sw, err)
	}
	for _, fm := range c.interceptionRules() {
		fm.XID = c.xid()
		if err := conn.Send(fm); err != nil {
			return fmt.Errorf("rvaas: install interception on %d: %w", sw, err)
		}
	}
	c.wg.Add(1)
	go c.readLoop(sess)
	if c.cfg.HeartbeatInterval > 0 {
		c.wg.Add(1)
		go c.heartbeatLoop(sess)
	}

	// Initial sync after the reader is running so the reply is routed.
	if err := c.pollSwitchMode(sw, 2*time.Second, reattach); err != nil {
		return fmt.Errorf("rvaas: initial sync %d: %w", sw, err)
	}
	if reattach {
		c.mu.Lock()
		c.evHigh[sw] = c.snap.seqOf(sw)
		c.mu.Unlock()
	}
	return nil
}

// Detach tears one switch session down and wipes the switch's snapshot
// state so standing invariants re-verify degraded instead of staying green
// on a view nobody can vouch for. Called by the session reader on channel
// failure, by the heartbeat prober on sustained silence, and by deployment
// supervisors that observed the hosting process die. Detaching a switch
// with no session is a no-op.
func (c *Controller) Detach(sw topology.SwitchID) {
	c.mu.Lock()
	sess := c.sessions[sw]
	c.mu.Unlock()
	if sess != nil {
		c.detachSession(sess)
	}
}

// detachSession removes exactly this session (a re-attach may already have
// installed a successor for the same switch — that one is left alone).
func (c *Controller) detachSession(sess *session) {
	c.mu.Lock()
	if c.sessions[sess.sw] != sess {
		c.mu.Unlock()
		sess.conn.Close()
		return
	}
	delete(c.sessions, sess.sw)
	stopped := false
	select {
	case <-c.stop:
		stopped = true
	default:
	}
	if !stopped {
		c.stats.Detaches++
	}
	c.mu.Unlock()
	sess.conn.Close()
	if stopped {
		// Controller shutdown tears sessions down in bulk; the final
		// snapshot must not record every switch as unreachable.
		return
	}
	if cap, changed := c.snap.markUnreachable(sess.sw); changed {
		c.recordHistory(history.SourceDetach, cap)
	}
}

// heartbeatLoop probes one session's liveness with echo requests; after
// HeartbeatMisses consecutive unanswered probes the session is detached. A
// probe is an ordinary request/reply, so a switch that is slow but alive
// resets the miss counter with any answered probe.
func (c *Controller) heartbeatLoop(sess *session) {
	defer c.wg.Done()
	interval := c.cfg.HeartbeatInterval
	misses := 0
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-sess.done:
			return
		case <-c.stop:
			return
		}
		c.mu.Lock()
		current := c.sessions[sess.sw] == sess
		c.mu.Unlock()
		if !current {
			return
		}
		xid := c.xid()
		if _, err := c.request(sess.sw, &openflow.EchoRequest{XID: xid}, xid, interval); err != nil {
			misses++
			if misses >= c.cfg.HeartbeatMisses {
				c.detachSession(sess)
				return
			}
			continue
		}
		misses = 0
	}
}

// interceptionRules are the rules RVaaS installs on every switch so client
// envelopes (the magic header, paper §IV-A3) and topology probes are
// reported as Packet-Ins.
func (c *Controller) interceptionRules() []*openflow.FlowMod {
	intercept := func(tag uint64, fields ...openflow.FieldMatch) *openflow.FlowMod {
		return &openflow.FlowMod{
			Command: openflow.FlowAdd,
			Entry: openflow.FlowEntry{
				Priority: interceptPriority,
				Match:    openflow.Match{Fields: fields},
				Actions:  []openflow.Action{openflow.Output(openflow.ControllerPort)},
				Cookie:   CookieRVaaS | tag,
			},
		}
	}
	return []*openflow.FlowMod{
		intercept(5,
			openflow.FieldMatch{Field: wire.FieldIPProto, Value: uint64(wire.IPProtoUDP), Mask: 0xFF},
			openflow.FieldMatch{Field: wire.FieldL4Dst, Value: uint64(wire.PortRVaaSV2), Mask: 0xFFFF}),
		intercept(3,
			openflow.FieldMatch{Field: wire.FieldEthType, Value: uint64(wire.EthTypeProbe), Mask: 0xFFFF}),
	}
}

// Start launches the background workers: the randomized active poller
// ("proactively query the switches for their current configuration ... at
// random times") and the subscription re-verification worker that
// re-checks standing invariants after every applied snapshot change.
func (c *Controller) Start() {
	c.wg.Add(1)
	go c.notifier()
	if !c.cfg.ManualRecheck {
		c.wg.Add(1)
		go c.subscriptionWorker()
	}
	if c.cfg.PollInterval <= 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			gap := c.nextPollGap()
			timer := time.NewTimer(gap)
			select {
			case <-timer.C:
				_ = c.PollAll(2 * time.Second)
			case <-c.stop:
				timer.Stop()
				return
			}
		}
	}()
}

func (c *Controller) nextPollGap() time.Duration {
	base := c.cfg.PollInterval
	if !c.cfg.RandomizePolls {
		return base
	}
	c.mu.Lock()
	jitter := c.rng.Int63n(int64(base))
	c.mu.Unlock()
	return base/2 + time.Duration(jitter)
}

// Close stops all background work and tears down the sessions.
func (c *Controller) Close() {
	c.mu.Lock()
	select {
	case <-c.stop:
		c.mu.Unlock()
		c.wg.Wait()
		return
	default:
	}
	close(c.stop)
	sessions := make([]*session, 0, len(c.sessions))
	for _, s := range c.sessions {
		sessions = append(sessions, s)
	}
	pend := c.pending
	c.pending = make(map[uint64]*pendingQuery)
	c.mu.Unlock()
	for _, p := range pend {
		p.cancel()
	}
	for _, s := range sessions {
		s.conn.Close()
	}
	c.wg.Wait()
}

func (c *Controller) xid() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextXID++
	return c.nextXID
}

// readLoop dispatches messages from one switch session. A receive failure
// (peer closed the channel, transport died) detaches the session so the
// switch's state degrades instead of freezing green.
func (c *Controller) readLoop(sess *session) {
	defer c.wg.Done()
	for {
		msg, err := sess.conn.Recv()
		if err != nil {
			close(sess.done)
			c.detachSession(sess)
			return
		}
		// Route request/reply pairs to waiters first. Only reply-typed
		// messages can answer a request: switch-originated monitor events
		// and Packet-Ins number their XIDs independently from 1 and would
		// otherwise collide with a pending request's.
		switch msg.(type) {
		case *openflow.StatsReply, *openflow.EchoReply, *openflow.BarrierReply, *openflow.ErrorMsg:
			key := waiterKey{sess.sw, msg.XIDValue()}
			c.mu.Lock()
			ch, ok := c.waiters[key]
			delete(c.waiters, key)
			c.mu.Unlock()
			if ok {
				ch <- msg
				continue
			}
		}

		switch m := msg.(type) {
		case *openflow.FlowMonitorReply:
			c.handleMonitorEvent(sess.sw, m)
		case *openflow.StatsReply:
			// Unsolicited full state (e.g. late reply): still apply it
			// (subject to staleness protection).
			c.applyStats(sess.sw, m, history.SourceActivePoll, false)
		case *openflow.PacketIn:
			c.handlePacketIn(sess.sw, m)
		case *openflow.EchoRequest:
			_ = sess.conn.Send(&openflow.EchoReply{XID: m.XID, Data: m.Data})
		default:
			// Hellos, errors, barriers without waiters: ignore.
		}
	}
}

// request sends a message and waits for the reply with the same XID.
func (c *Controller) request(sw topology.SwitchID, msg openflow.Message, xid uint32, timeout time.Duration) (openflow.Message, error) {
	c.mu.Lock()
	sess := c.sessions[sw]
	if sess == nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("rvaas: no session for switch %d", sw)
	}
	key := waiterKey{sw, xid}
	ch := make(chan openflow.Message, 1)
	c.waiters[key] = ch
	c.mu.Unlock()

	if err := sess.conn.Send(msg); err != nil {
		c.mu.Lock()
		delete(c.waiters, key)
		c.mu.Unlock()
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case reply := <-ch:
		return reply, nil
	case <-timer.C:
		c.mu.Lock()
		delete(c.waiters, key)
		c.mu.Unlock()
		return nil, fmt.Errorf("rvaas: switch %d reply timeout", sw)
	case <-c.stop:
		return nil, errors.New("rvaas: controller closed")
	}
}

// sendPacketOut injects a frame at a switch ("responses are sent via
// packet-outs").
func (c *Controller) sendPacketOut(sw topology.SwitchID, outPort topology.PortNo, pkt *wire.Packet) error {
	c.mu.Lock()
	sess := c.sessions[sw]
	c.mu.Unlock()
	if sess == nil {
		return fmt.Errorf("rvaas: no session for switch %d", sw)
	}
	return sess.conn.Send(&openflow.PacketOut{
		XID:     c.xid(),
		InPort:  openflow.AnyPort,
		Actions: []openflow.Action{openflow.Output(uint32(outPort))},
		Data:    pkt.Marshal(),
	})
}
