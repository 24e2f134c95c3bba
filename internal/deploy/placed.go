package deploy

import (
	"cmp"
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/controlplane"
	"repro/internal/enclave"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/labspec"
	"repro/internal/openflow"
	"repro/internal/procplane"
	"repro/internal/rvaas"
	"repro/internal/rvaas/admin"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Placed-lab timing.
const (
	// placedHeartbeat is the secure-channel liveness probe period for
	// multi-process labs: a SIGKILLed switchd gives no transport-close
	// signal over UDP, so only missed heartbeats reveal the loss.
	placedHeartbeat = 200 * time.Millisecond
	// defaultJoinTimeout bounds waiting for every placed group to join and
	// its switches to attach.
	defaultJoinTimeout = 30 * time.Second
)

// PlacedConfig tunes multi-process bring-up (FromSpecPlaced). The zero
// value resolves switchd/agentd from PATH and discards child logs.
type PlacedConfig struct {
	// ChildCommand returns the argv used to spawn a local-exec child of the
	// given kind ("switchd" or "agentd"). Nil resolves the kind from PATH.
	ChildCommand func(kind string) []string
	// Logf receives deployment and child-process log lines (nil discards).
	Logf func(format string, args ...any)
}

// procGroup is the controller-side state of one placed process group.
type procGroup struct {
	spec labspec.PlacementGroup
	role string // procplane.KindSwitchd or KindAgentd
	// token is the effective join token (generated for tokenless
	// local-exec groups).
	token string

	// inj is the lab's fault injector; outbound trunk messages consult it.
	inj *faultinject.Injector

	mu       sync.Mutex
	conn     *procplane.Conn
	lastBeat time.Time
	joins    int
	detail   string
	child    *ChildProc
	joinedC  chan struct{} // closed on first successful join
}

func (g *procGroup) send(typ byte, payload []byte) {
	if g.inj != nil {
		drop, delay := g.inj.TrunkVerdict(g.spec.Name, false, typ == procplane.MsgBeat)
		if drop {
			return // the fault window ate it
		}
		if delay > 0 {
			// A stalled trunk is slow, not reordered: block the sender.
			time.Sleep(delay)
		}
	}
	g.mu.Lock()
	tc := g.conn
	g.mu.Unlock()
	if tc == nil {
		return // process gone: the frame is lost, the health view degrades
	}
	_ = tc.Write(typ, payload)
}

// Placement is the runtime of a multi-process lab: the TCP trunk hub the
// placed processes join and exchange data-plane frames over, the UDP attach
// listener their switches bring secure control channels up to, and the
// supervisor state of locally spawned children.
type Placement struct {
	spec     *labspec.Spec
	specJSON []byte
	topo     *topology.Topology
	fab      *fabric.Fabric
	ctl      *rvaas.Controller
	ca       *openflow.CA
	ctlID    *openflow.Identity
	ctlCert  openflow.Certificate
	// Join-ack trust material for agentd children.
	platformRoot []byte
	measurement  []byte
	serverKey    []byte

	ln   net.Listener
	mux  *openflow.UDPMux
	logf func(string, ...any)

	// inj is the lab's fault injector (always present; idle without
	// windows). beatInterval / beatMiss are the spec-resolved trunk
	// liveness parameters the beat-miss monitor enforces.
	inj          *faultinject.Injector
	beatInterval time.Duration
	beatMiss     time.Duration

	mu       sync.Mutex
	groups   map[string]*procGroup
	bySwitch map[topology.SwitchID]*procGroup
	// hostHandlers are the controller-process agents' NIC receive paths
	// (edge deliveries route here when the owning fabric is remote).
	hostHandlers map[topology.Endpoint]fabric.HostHandler
	// apGroup maps a placed agent's access endpoint to its hosting group.
	apGroup map[topology.Endpoint]*procGroup
	closed  bool
	wg      sync.WaitGroup
}

// TrunkAddr reports the trunk listen address.
func (p *Placement) TrunkAddr() string { return p.ln.Addr().String() }

// AttachAddr reports the UDP secure-channel attach address.
func (p *Placement) AttachAddr() string { return p.mux.Addr().String() }

// newToken generates a random join token.
func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("deploy: token: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// remoteDeliver is the controller fabric's cross-seam hand-off.
func (p *Placement) remoteDeliver(to topology.Endpoint, host bool, pkt *wire.Packet) {
	if host {
		p.deliverHost(to, pkt)
		return
	}
	p.mu.Lock()
	g := p.bySwitch[to.Switch]
	p.mu.Unlock()
	if g == nil {
		return
	}
	g.send(procplane.MsgFramePort, procplane.EncodeFrame(to, pkt))
}

// deliverHost routes an edge delivery to whichever process hosts the
// endpoint's agent: a controller-process handler or an agentd group.
func (p *Placement) deliverHost(ep topology.Endpoint, pkt *wire.Packet) {
	p.mu.Lock()
	h := p.hostHandlers[ep]
	g := p.apGroup[ep]
	p.mu.Unlock()
	if h != nil {
		h(pkt)
		return
	}
	if g != nil {
		g.send(procplane.MsgFrameHost, procplane.EncodeFrame(ep, pkt))
	}
}

// attachHost registers a controller-process agent's NIC receive path with
// the frame router, not the fabric: its access switch may live in a child
// process.
func (p *Placement) attachHost(ep topology.Endpoint, h fabric.HostHandler) error {
	p.mu.Lock()
	p.hostHandlers[ep] = h
	p.mu.Unlock()
	return nil
}

// routeInject enters a host-originated frame into the fabric that owns its
// access switch. Controller-process agents use this as their NIC; trunk
// MsgFrameInject traffic from agentd children lands here too.
func (p *Placement) routeInject(ep topology.Endpoint, pkt *wire.Packet) error {
	if p.fab.Owns(ep.Switch) {
		return p.fab.InjectFromHost(ep, pkt)
	}
	p.mu.Lock()
	g := p.bySwitch[ep.Switch]
	p.mu.Unlock()
	if g == nil {
		return fmt.Errorf("deploy: no process places switch %d", ep.Switch)
	}
	g.send(procplane.MsgFrameInject, procplane.EncodeFrame(ep, pkt))
	return nil
}

// placedNIC adapts routeInject to the client agent NIC interface.
type placedNIC struct{ p *Placement }

func (n placedNIC) InjectFromHost(ep topology.Endpoint, pkt *wire.Packet) error {
	return n.p.routeInject(ep, pkt)
}

// placedProgrammer routes provider flow programming to the process hosting
// each switch: locally owned datapaths directly, placed ones over the trunk
// (fire-and-forget — the programming plane is the untrusted provider path;
// the verification plane audits actual switch state over its own channel).
type placedProgrammer struct{ p *Placement }

func (pp placedProgrammer) Program(sw topology.SwitchID, mod *openflow.FlowMod) error {
	if dp := pp.p.fab.Switch(sw); dp != nil {
		return dp.ApplyFlowMod(mod)
	}
	pp.p.mu.Lock()
	g := pp.p.bySwitch[sw]
	pp.p.mu.Unlock()
	if g == nil {
		return fmt.Errorf("deploy: no process places switch %d", sw)
	}
	g.mu.Lock()
	joined := g.conn != nil
	g.mu.Unlock()
	if !joined {
		return fmt.Errorf("deploy: group %s not joined, cannot program switch %d", g.spec.Name, sw)
	}
	g.send(procplane.MsgFlowMod, procplane.EncodeFlowMod(sw, mod))
	return nil
}

// acceptTrunk accepts placed-process trunk connections for the lab's
// lifetime.
func (p *Placement) acceptTrunk() {
	defer p.wg.Done()
	for {
		nc, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.serveTrunkConn(procplane.NewConn(nc))
		}()
	}
}

// serveTrunkConn runs one trunk connection: join handshake, then frame /
// beat / register traffic until the peer goes away.
func (p *Placement) serveTrunkConn(tc *procplane.Conn) {
	g, err := p.handleJoin(tc)
	if err != nil {
		p.logf("deploy: trunk join from %s refused: %v", tc.RemoteAddr(), err)
		ack := procplane.JoinAck{Error: err.Error()}
		var refused *procplane.JoinRefusedError
		if errors.As(err, &refused) {
			ack.Error = refused.Reason
			ack.Retry = refused.Retryable
		}
		_ = tc.WriteJSON(procplane.MsgJoinAck, &ack)
		tc.Close()
		return
	}
	defer func() {
		tc.Close()
		g.mu.Lock()
		lost := g.conn == tc
		if lost {
			g.conn = nil
			g.detail = "trunk connection lost"
		}
		g.mu.Unlock()
		if lost {
			p.trunkLost(g)
		}
	}()
	for {
		typ, payload, err := tc.Read()
		if err != nil {
			return
		}
		if drop, delay := p.inj.TrunkVerdict(g.spec.Name, true, typ == procplane.MsgBeat); drop {
			continue
		} else if delay > 0 {
			time.Sleep(delay)
		}
		switch typ {
		case procplane.MsgBeat:
			g.mu.Lock()
			g.lastBeat = time.Now()
			g.mu.Unlock()
		case procplane.MsgFramePort:
			ep, pkt, err := procplane.DecodeFrame(payload)
			if err != nil {
				p.logf("deploy: trunk %s: %v", g.spec.Name, err)
				continue
			}
			if p.fab.Owns(ep.Switch) {
				if err := p.fab.InjectAtPort(ep, pkt); err != nil {
					p.logf("deploy: trunk %s: %v", g.spec.Name, err)
				}
				continue
			}
			// A seam between two child processes: relay.
			p.mu.Lock()
			dst := p.bySwitch[ep.Switch]
			p.mu.Unlock()
			if dst != nil {
				dst.send(procplane.MsgFramePort, payload)
			}
		case procplane.MsgFrameHost:
			ep, pkt, err := procplane.DecodeFrame(payload)
			if err != nil {
				p.logf("deploy: trunk %s: %v", g.spec.Name, err)
				continue
			}
			p.deliverHost(ep, pkt)
		case procplane.MsgFrameInject:
			ep, pkt, err := procplane.DecodeFrame(payload)
			if err != nil {
				p.logf("deploy: trunk %s: %v", g.spec.Name, err)
				continue
			}
			if err := p.routeInject(ep, pkt); err != nil {
				p.logf("deploy: trunk %s: %v", g.spec.Name, err)
			}
		case procplane.MsgRegister:
			var reg procplane.Register
			if err := json.Unmarshal(payload, &reg); err != nil {
				_ = tc.WriteJSON(procplane.MsgRegisterAck, &procplane.RegisterAck{Error: err.Error()})
				continue
			}
			if err := p.registerAgents(g, reg.Keys); err != nil {
				_ = tc.WriteJSON(procplane.MsgRegisterAck, &procplane.RegisterAck{Error: err.Error()})
				continue
			}
			_ = tc.WriteJSON(procplane.MsgRegisterAck, &procplane.RegisterAck{})
		default:
			p.logf("deploy: trunk %s: unexpected message type %d", g.spec.Name, typ)
		}
	}
}

// handleJoin validates a join request against the placement spec and, on
// success, issues switch certificates and acks with the lab's credentials.
func (p *Placement) handleJoin(tc *procplane.Conn) (*procGroup, error) {
	tc.SetReadDeadline(time.Now().Add(defaultJoinTimeout))
	typ, payload, err := tc.Read()
	tc.SetReadDeadline(time.Time{})
	if err != nil {
		return nil, fmt.Errorf("reading join: %w", err)
	}
	if typ != procplane.MsgJoin {
		return nil, fmt.Errorf("expected join, got message type %d", typ)
	}
	var jr procplane.JoinRequest
	if err := json.Unmarshal(payload, &jr); err != nil {
		return nil, fmt.Errorf("join request: %w", err)
	}
	if jr.Lab != p.spec.Name {
		return nil, fmt.Errorf("join for lab %q, this controller runs %q", jr.Lab, p.spec.Name)
	}
	p.mu.Lock()
	g := p.groups[jr.Group]
	p.mu.Unlock()
	if g == nil {
		return nil, fmt.Errorf("unknown placement group %q", jr.Group)
	}
	if subtle.ConstantTimeCompare([]byte(jr.Token), []byte(g.token)) != 1 {
		return nil, fmt.Errorf("bad token for group %q", jr.Group)
	}
	if jr.Kind != g.role {
		return nil, fmt.Errorf("group %q is a %s group, join says %s", jr.Group, g.role, jr.Kind)
	}
	if p.inj.TrunkPartitioned(jr.Group) {
		// The partition also blocks rejoins; the child backs off and
		// retries until the window heals.
		p.inj.CountJoinRefused()
		return nil, &procplane.JoinRefusedError{
			Reason:    fmt.Sprintf("group %q trunk is partitioned", jr.Group),
			Retryable: true,
		}
	}
	ack := procplane.JoinAck{Spec: p.specJSON, CAPub: p.ca.Pub}
	switch g.role {
	case procplane.KindSwitchd:
		want := make(map[uint32]bool, len(g.spec.Switches))
		for _, sw := range g.spec.Switches {
			want[sw] = true
		}
		if len(jr.SwitchKeys) != len(want) {
			return nil, fmt.Errorf("group %q places %d switches, join presents %d keys", jr.Group, len(want), len(jr.SwitchKeys))
		}
		ack.AttachAddr = p.mux.Addr().String()
		ack.Certs = make(map[uint32]openflow.Certificate, len(jr.SwitchKeys))
		for sw, pub := range jr.SwitchKeys {
			if !want[sw] {
				return nil, fmt.Errorf("group %q does not place switch %d", jr.Group, sw)
			}
			ack.Certs[sw] = p.ca.IssueKey(fmt.Sprintf("switch-%d", sw), pub)
		}
	case procplane.KindAgentd:
		want := make(map[uint64]bool, len(g.spec.Agents))
		for _, id := range g.spec.Agents {
			want[id] = true
		}
		for _, id := range jr.Agents {
			if !want[id] {
				return nil, fmt.Errorf("group %q does not place client %d", jr.Group, id)
			}
		}
		ack.PlatformRoot = p.platformRoot
		ack.Measurement = p.measurement
		ack.ServerKey = p.serverKey
	}
	g.mu.Lock()
	if g.conn != nil {
		g.mu.Unlock()
		// Retryable: a rejoining child can race the beat-miss reaping of
		// its dead predecessor's connection.
		return nil, &procplane.JoinRefusedError{
			Reason:    fmt.Sprintf("group %q already joined", jr.Group),
			Retryable: true,
		}
	}
	g.conn = tc
	g.lastBeat = time.Now()
	g.joins++
	g.detail = ""
	joined := g.joinedC
	g.mu.Unlock()
	if err := tc.WriteJSON(procplane.MsgJoinAck, &ack); err != nil {
		g.mu.Lock()
		if g.conn == tc {
			g.conn = nil
		}
		g.mu.Unlock()
		return nil, err
	}
	select {
	case <-joined:
	default:
		close(joined)
	}
	p.logf("deploy: group %s joined (%s)", g.spec.Name, g.role)
	return g, nil
}

// registerAgents records an agentd group's client verification keys with
// the verification controller and routes their access points' host
// deliveries to the group.
func (p *Placement) registerAgents(g *procGroup, keys map[uint64][]byte) error {
	if g.role != procplane.KindAgentd {
		return fmt.Errorf("group %q is not an agentd group", g.spec.Name)
	}
	placed := make(map[uint64]bool, len(g.spec.Agents))
	for _, id := range g.spec.Agents {
		placed[id] = true
	}
	for id := range keys {
		if !placed[id] {
			return fmt.Errorf("group %q does not place client %d", g.spec.Name, id)
		}
	}
	for id, key := range keys {
		p.ctl.RegisterClient(id, key)
	}
	p.mu.Lock()
	for _, ap := range p.topo.AccessPoints() {
		if placed[ap.ClientID] {
			p.apGroup[ap.Endpoint] = g
		}
	}
	p.mu.Unlock()
	return nil
}

// acceptAttach accepts switch secure-channel handshakes on the UDP mux and
// attaches each authenticated switch to the verification controller.
func (p *Placement) acceptAttach() {
	defer p.wg.Done()
	for {
		conn, err := p.mux.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			// Every attach channel runs through the fault layer, keyed by
			// peer address so a link's perturbation sequence is
			// deterministic per (seed, link). Idle without windows.
			ft := p.inj.WrapChannel(conn.PeerAddr().String(), conn)
			sc, err := openflow.SecureServer(ft, p.ctlID, p.ctlCert, p.ca.Pub)
			if err != nil {
				p.logf("deploy: attach handshake from %s: %v", conn.PeerAddr(), err)
				ft.Close()
				return
			}
			var sw uint32
			if _, err := fmt.Sscanf(sc.PeerName(), "switch-%d", &sw); err != nil {
				p.logf("deploy: attach peer %q is not a switch identity", sc.PeerName())
				sc.Close()
				return
			}
			ft.SetSwitch(sw)
			swID := topology.SwitchID(sw)
			p.mu.Lock()
			g := p.bySwitch[swID]
			p.mu.Unlock()
			if g == nil {
				p.logf("deploy: switch %d attached but no group places it", sw)
				sc.Close()
				return
			}
			// A rejoining process may beat the heartbeat detach of its
			// dead predecessor: Attach replaces that session.
			if err := p.ctl.Attach(swID, sc); err != nil {
				p.logf("deploy: attach switch %d: %v", sw, err)
				return
			}
			p.logf("deploy: switch %d attached from group %s", sw, g.spec.Name)
		}()
	}
}

// trunkLost detaches a group's switch control sessions after its trunk
// went away (skipped during shutdown, where stop tears everything down).
// Degraded, never stale-green: with the trunk gone, the group's cross-seam
// data plane is broken, so its switches must not keep reporting healthy
// attached sessions.
func (p *Placement) trunkLost(g *procGroup) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return
	}
	for _, sw := range g.spec.Switches {
		p.ctl.Detach(topology.SwitchID(sw))
	}
	if len(g.spec.Switches) > 0 {
		p.logf("deploy: group %s trunk lost; detached switches %v", g.spec.Name, g.spec.Switches)
	}
}

// detachGroup force-closes a group's trunk connection and detaches its
// switches, recording why. The connection close also unblocks the child's
// read loop, sending it into its rejoin backoff.
func (p *Placement) detachGroup(g *procGroup, detail string) {
	g.mu.Lock()
	tc := g.conn
	if tc != nil {
		g.conn = nil
		g.detail = detail
	}
	g.mu.Unlock()
	if tc == nil {
		return
	}
	tc.Close()
	p.logf("deploy: group %s: %s", g.spec.Name, detail)
	p.trunkLost(g)
}

// monitor is the controller-side liveness judge: it reaps trunk sessions
// whose beats went stale past the spec's beatMissTimeout (closing the
// stale-green hole where attach channels stay up while the trunk is
// partitioned) and applies one-shot fault actions (reset, kill).
func (p *Placement) monitor() {
	defer p.wg.Done()
	interval := p.beatInterval / 2
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for range tick.C {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		groups := p.groupList()
		p.mu.Unlock()

		for _, act := range p.inj.TakeActions() {
			w := act.Window
			var target *procGroup
			for _, g := range groups {
				if g.spec.Name == w.Group {
					target = g
					break
				}
			}
			if target == nil {
				continue
			}
			switch w.Kind {
			case faultinject.KindReset:
				p.detachGroup(target, "trunk reset by fault window")
			case faultinject.KindKill:
				target.mu.Lock()
				child := target.child
				target.mu.Unlock()
				if child != nil {
					p.logf("deploy: group %s: child killed by fault window", w.Group)
					child.Signal(syscall.SIGKILL)
				}
			}
		}

		now := time.Now()
		for _, g := range groups {
			g.mu.Lock()
			stale := g.conn != nil && now.Sub(g.lastBeat) > p.beatMiss
			g.mu.Unlock()
			if stale {
				p.detachGroup(g, "trunk beats stale; detached")
			}
		}
	}
}

// ProcHealth reports per-process health for the admin API: trunk liveness,
// child-process state, and (for switchd groups) control-session health.
func (p *Placement) ProcHealth() []admin.ProcHealth {
	sessions := make(map[topology.SwitchID]rvaas.SwitchSessionInfo)
	for _, ss := range p.ctl.SwitchSessions() {
		sessions[ss.Switch] = ss
	}
	p.mu.Lock()
	groups := p.groupList()
	p.mu.Unlock()
	out := make([]admin.ProcHealth, 0, len(groups))
	for _, g := range groups {
		g.mu.Lock()
		h := admin.ProcHealth{
			Name:     g.spec.Name,
			Role:     g.role,
			Proc:     g.spec.Proc,
			Switches: g.spec.Switches,
			Agents:   g.spec.Agents,
			Detail:   g.detail,
			Joins:    g.joins,
		}
		joined := g.conn != nil
		stale := joined && time.Since(g.lastBeat) > p.beatMiss
		child := g.child
		g.mu.Unlock()
		exited := false
		if child != nil {
			h.PID = child.PID()
			exited, _ = child.Exited()
		}
		switch {
		case exited:
			h.State = admin.ProcStateExited
			if h.Detail == "" {
				h.Detail = "child process exited"
			}
		case !joined:
			h.State = admin.ProcStateDegraded
			if h.Detail == "" {
				h.Detail = "not joined"
			}
		case stale:
			h.State = admin.ProcStateDegraded
			h.Detail = "trunk beats stale"
		default:
			h.State = admin.ProcStateRunning
			for _, sw := range g.spec.Switches {
				if ss, ok := sessions[topology.SwitchID(sw)]; !ok || !ss.Attached() {
					h.State = admin.ProcStateDegraded
					h.Detail = fmt.Sprintf("switch %d session %s", sw, ss.State)
					break
				}
			}
		}
		out = append(out, h)
	}
	slices.SortFunc(out, func(a, b admin.ProcHealth) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// groupList copies the group set; callers hold p.mu.
func (p *Placement) groupList() []*procGroup {
	groups := make([]*procGroup, 0, len(p.groups))
	for _, g := range p.groups {
		groups = append(groups, g)
	}
	return groups
}

// manifestFor renders a group's rendezvous manifest.
func (p *Placement) manifestFor(g *procGroup) *procplane.Manifest {
	m := &procplane.Manifest{
		Lab: p.spec.Name, Group: g.spec.Name, Kind: g.role,
		Token: g.token, Trunk: p.TrunkAddr(),
		Switches: g.spec.Switches, Agents: g.spec.Agents,
	}
	if r := p.spec.Placement.Rejoin; r != nil {
		m.Rejoin = &procplane.RejoinConfig{
			MaxAttempts: r.MaxAttempts,
			Backoff:     r.Backoff.Std(),
			MaxBackoff:  r.MaxBackoff.Std(),
		}
	}
	return m
}

// stop tears the process plane down: stop accepting joins, close trunks
// (placed processes exit when their trunk closes), and stop local children
// (SIGTERM, grace, SIGKILL) bounded by ctx.
func (p *Placement) stop(ctx context.Context) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	groups := p.groupList()
	p.mu.Unlock()
	if p.ln != nil {
		p.ln.Close()
	}
	var children []*ChildProc
	for _, g := range groups {
		g.mu.Lock()
		if g.conn != nil {
			g.conn.Close()
		}
		if g.child != nil {
			children = append(children, g.child)
		}
		g.mu.Unlock()
	}
	if killed := stopChildren(ctx, children); len(killed) > 0 {
		p.logf("deploy: killed unresponsive children: %v", killed)
	}
}

// closeListeners shuts the attach mux down (after the controller released
// its sessions) and waits for the accept loops and per-conn goroutines.
func (p *Placement) closeListeners() {
	if p.mux != nil {
		p.mux.Close()
	}
	p.wg.Wait()
}

// fromPlacedSpec brings a multi-process lab up: the controller process
// hosts the verification controller, the provider programming plane, the
// fabric share of in-proc switches and the non-placed agents; every placed
// group runs in its own process joined over the trunk.
func fromPlacedSpec(spec *labspec.Spec, opt Options, pc PlacedConfig) (*Deployment, error) {
	topo, err := spec.Topology.Build()
	if err != nil {
		return nil, err
	}
	logf := pc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	userCmd := pc.ChildCommand
	childCmd := func(kind string) []string {
		if userCmd != nil {
			if argv := userCmd(kind); len(argv) > 0 {
				return argv
			}
		}
		return defaultChildCommand(kind)
	}

	placedSw := spec.Placement.PlacedSwitches()
	var owned []topology.SwitchID
	for _, sw := range topo.Switches() {
		if _, ok := placedSw[uint32(sw)]; !ok {
			owned = append(owned, sw)
		}
	}

	p := &Placement{
		spec:         spec,
		topo:         topo,
		logf:         logf,
		groups:       make(map[string]*procGroup),
		bySwitch:     make(map[topology.SwitchID]*procGroup),
		hostHandlers: make(map[topology.Endpoint]fabric.HostHandler),
		apGroup:      make(map[topology.Endpoint]*procGroup),
	}
	p.beatInterval = spec.Placement.EffectiveBeatInterval()
	p.beatMiss = spec.Placement.EffectiveBeatMissTimeout()

	// The fault injector is always present (idle without windows): runtime
	// injection over the admin API must not need a faults: section.
	faultSeed := int64(1)
	if spec.Faults != nil && spec.Faults.Seed != 0 {
		faultSeed = spec.Faults.Seed
	}
	p.inj = faultinject.New(faultSeed)
	if spec.Faults != nil {
		for _, pr := range spec.Faults.Profiles {
			if err := p.inj.DefineProfile(faultinject.Profile{
				Name: pr.Name, Drop: pr.Drop, Duplicate: pr.Duplicate,
				Reorder: pr.Reorder, Latency: pr.Latency.Std(), Jitter: pr.Jitter.Std(),
			}); err != nil {
				return nil, err
			}
		}
	}
	p.specJSON, err = json.Marshal(spec)
	if err != nil {
		return nil, err
	}

	fab, err := fabric.NewPartial(topo, owned, p.remoteDeliver)
	if err != nil {
		return nil, err
	}
	p.fab = fab
	fail := func(err error) (*Deployment, error) {
		p.stop(context.Background())
		if p.mux != nil {
			p.mux.Close()
		}
		p.wg.Wait()
		if p.ctl != nil {
			p.ctl.Close()
		}
		fab.Close()
		return nil, err
	}

	platform, err := enclave.NewPlatform()
	if err != nil {
		return fail(err)
	}
	cfg := opt.rvaasConfig(topo, platform, 0)
	cfg.HeartbeatInterval = placedHeartbeat
	p.ctl, err = rvaas.New(cfg)
	if err != nil {
		return fail(err)
	}

	// PKI + listeners.
	p.ca, err = openflow.NewCA()
	if err != nil {
		return fail(err)
	}
	p.ctlID, err = openflow.NewIdentity("rvaas")
	if err != nil {
		return fail(err)
	}
	p.ctlCert = p.ca.Issue(p.ctlID)
	trunkAddr := spec.Placement.Trunk
	if trunkAddr == "" {
		trunkAddr = "127.0.0.1:0"
	}
	p.ln, err = net.Listen("tcp", trunkAddr)
	if err != nil {
		return fail(fmt.Errorf("deploy: trunk listener: %w", err))
	}
	attachAddr := spec.Placement.Attach
	if attachAddr == "" {
		attachAddr = "127.0.0.1:0"
	}
	p.mux, err = openflow.ListenUDPMux(attachAddr)
	if err != nil {
		return fail(fmt.Errorf("deploy: attach listener: %w", err))
	}
	p.platformRoot = platform.RootKey()
	meas := rvaas.Measurement()
	p.measurement = meas[:]
	p.serverKey = p.ctl.PublicKey()

	// Group state; tokens for tokenless local-exec groups.
	for _, g := range spec.Placement.Groups {
		if g.Proc == labspec.ProcInProc {
			continue
		}
		pg := &procGroup{spec: g, token: g.Token, inj: p.inj, joinedC: make(chan struct{})}
		if len(g.Switches) > 0 {
			pg.role = procplane.KindSwitchd
		} else {
			pg.role = procplane.KindAgentd
		}
		if pg.token == "" {
			if pg.token, err = newToken(); err != nil {
				return fail(err)
			}
		}
		p.groups[g.Name] = pg
		for _, sw := range g.Switches {
			p.bySwitch[topology.SwitchID(sw)] = pg
		}
	}
	p.wg.Add(3)
	go p.acceptTrunk()
	go p.acceptAttach()
	go p.monitor()

	// Rendezvous manifests for externally launched groups; spawned children
	// for local-exec groups (manifest on stdin).
	for _, pg := range p.groups {
		m := p.manifestFor(pg)
		switch pg.spec.Proc {
		case labspec.ProcExternal:
			path := filepath.Join(spec.Placement.RendezvousDir, pg.spec.Name+".json")
			if err := procplane.WriteManifest(path, m); err != nil {
				return fail(err)
			}
			logf("deploy: wrote rendezvous manifest %s", path)
		case labspec.ProcLocalExec:
			child, err := spawnChild(pg.spec.Name, pg.role, childCmd(pg.role), m, logf)
			if err != nil {
				return fail(err)
			}
			pg.mu.Lock()
			pg.child = child
			pg.mu.Unlock()
		}
	}

	// In-proc switches attach directly. They always use UDP loopback pipes:
	// a placed lab's channel substrate is lossy by construction, and the
	// in-memory pipe transport cannot model that.
	swOpt := opt
	if swOpt.Transport == "" || swOpt.Transport == labspec.TransportInProc {
		swOpt.Transport = labspec.TransportUDP
	}
	if err := attachSwitchList(owned, fab, p.ctl, p.ca, p.ctlID, p.ctlCert, swOpt); err != nil {
		return fail(err)
	}

	// Wait for every placed group to join and every switch session to come
	// up before programming routing.
	joinTimeout := spec.Placement.JoinTimeout.Std()
	if joinTimeout == 0 {
		joinTimeout = defaultJoinTimeout
	}
	deadline := time.Now().Add(joinTimeout)
	for _, pg := range p.groups {
		select {
		case <-pg.joinedC:
		case <-time.After(time.Until(deadline)):
			return fail(fmt.Errorf("deploy: group %s did not join within %s", pg.spec.Name, joinTimeout))
		}
	}
	if err := p.waitSwitchesAttached(deadline); err != nil {
		return fail(err)
	}

	// Provider routing through the placement-aware programming plane.
	provider := controlplane.NewWithProgrammer(topo, placedProgrammer{p})
	if err := opt.installRouting(provider); err != nil {
		return fail(err)
	}

	d := &Deployment{
		Topology: topo,
		Fabric:   fab,
		Provider: provider,
		RVaaS:    p.ctl,
		Platform: platform,
		CA:       p.ca,
		Agents:   make(map[uint64]*client.Agent),
		Placed:   p,
		opt:      opt,
	}
	if !opt.SkipAgents {
		if err := d.createAgents(placedNIC{p}, spec.Placement.PlacedAgents(), p.attachHost); err != nil {
			d.Close()
			return nil, err
		}
	}
	// Spec-scheduled fault windows anchor to the end of bring-up, so an
	// `at: 1s` window opens one second into the healthy lab.
	if spec.Faults != nil && len(spec.Faults.Windows) > 0 {
		base := time.Now()
		for _, w := range spec.Faults.Windows {
			fw := faultinject.Window{
				Target: w.Target, Group: w.Group, Switch: w.Switch,
				Kind: w.Kind, Profile: w.Profile,
				Start: base.Add(w.At.Std()),
			}
			if w.Duration > 0 {
				fw.Until = fw.Start.Add(w.Duration.Std())
			}
			if _, err := p.inj.Schedule(fw); err != nil {
				d.Close()
				return nil, err
			}
		}
	}
	p.ctl.Start()
	return d, nil
}

// waitSwitchesAttached polls the controller's session surface until every
// topology switch has a live session.
func (p *Placement) waitSwitchesAttached(deadline time.Time) error {
	for {
		missing := ""
		for _, ss := range p.ctl.SwitchSessions() {
			if !ss.Attached() {
				missing = fmt.Sprintf("switch %d is %s", ss.Switch, ss.State)
				break
			}
		}
		if missing == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deploy: bring-up incomplete: %s", missing)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// defaultChildCommand resolves the child binaries from PATH.
func defaultChildCommand(kind string) []string {
	if path, err := exec.LookPath(kind); err == nil {
		return []string{path}
	}
	return []string{kind}
}
