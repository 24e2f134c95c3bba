// Package switchsim implements a software OpenFlow switch: the trusted
// data-plane element of the paper's threat model ("switches are trusted,
// e.g., bought from a trusted vendor, and are initially configured
// correctly", §III). It speaks the openflow package's protocol over secure
// channels, serves multiple controllers, generates packet-ins, emits
// flow-monitor events on every table change, and answers full-state polls.
package switchsim

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TransmitFunc delivers a frame out of a physical port into the fabric.
type TransmitFunc func(port topology.PortNo, pkt *wire.Packet)

// Stats counts data-plane activity.
type Stats struct {
	RxPackets      uint64
	TxPackets      uint64
	Dropped        uint64
	PacketIns      uint64
	FlowMods       uint64
	MonitorEvents  uint64
	StatsRequests  uint64
	MeterDrops     uint64
	TableOccupancy int
}

// Switch is one simulated datapath.
type Switch struct {
	id       topology.SwitchID
	numPorts topology.PortNo

	mu       sync.Mutex
	table    []openflow.FlowEntry // priority desc, stable insertion order
	clock    func() time.Time
	seq      uint64 // table-change sequence number
	sessions []*session
	transmit TransmitFunc
	stats    Stats
	nextXID  uint32
	closed   bool
	meters   map[uint32]*meterState
	// suppressEvents models an adversary that silently suppresses the
	// switch's flow-monitor event channel (including its sequence numbers),
	// leaving active polling as the only way to observe table changes. This
	// is the ablation behind the paper's randomized-poll argument (§IV-A).
	suppressEvents bool
}

// session is one controller connection.
type session struct {
	conn      *openflow.SecureConn
	monitorID uint32
	monitored bool
	done      chan struct{}
}

// New creates a switch with the given id and port count. The transmit
// callback injects frames into the fabric; it must be safe for concurrent
// use.
func New(id topology.SwitchID, numPorts topology.PortNo, transmit TransmitFunc) *Switch {
	if transmit == nil {
		transmit = func(topology.PortNo, *wire.Packet) {}
	}
	return &Switch{id: id, numPorts: numPorts, transmit: transmit, clock: time.Now}
}

// Table returns a copy of the flow table in match order.
func (s *Switch) Table() []openflow.FlowEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entriesLocked()
}

// TableSeq returns the current table-change sequence number.
func (s *Switch) TableSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Ports lists the physical port numbers.
func (s *Switch) Ports() []uint32 {
	out := make([]uint32, 0, s.numPorts)
	for p := topology.PortNo(1); p <= s.numPorts; p++ {
		out = append(out, uint32(p))
	}
	return out
}

// Serve attaches a controller connection and processes its messages until
// the channel closes. It returns after sending Hello and spawning the
// reader; call Close to tear everything down.
func (s *Switch) Serve(conn *openflow.SecureConn) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("switchsim: switch %d closed", s.id)
	}
	sess := &session{conn: conn, done: make(chan struct{})}
	s.sessions = append(s.sessions, sess)
	s.mu.Unlock()

	if err := conn.Send(&openflow.Hello{XID: s.xid(), DatapathID: uint64(s.id)}); err != nil {
		return fmt.Errorf("switchsim: hello: %w", err)
	}
	go s.serveLoop(sess)
	return nil
}

// serveLoop reads one controller session until its channel closes, then
// drops the session: events and Packet-Ins are no longer sealed for it.
func (s *Switch) serveLoop(sess *session) {
	defer func() {
		s.mu.Lock()
		s.sessions = slices.DeleteFunc(s.sessions, func(x *session) bool { return x == sess })
		s.mu.Unlock()
		close(sess.done)
	}()
	for {
		msg, err := sess.conn.Recv()
		if err != nil {
			return
		}
		s.handleControl(sess, msg)
	}
}

// Close tears down all controller sessions and waits for their readers.
func (s *Switch) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	sessions := append([]*session(nil), s.sessions...)
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.conn.Close()
		<-sess.done
	}
}

func (s *Switch) xid() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextXID++
	return s.nextXID
}

// handleControl processes one controller message.
func (s *Switch) handleControl(sess *session, msg openflow.Message) {
	switch m := msg.(type) {
	case *openflow.Hello:
		// Controller hello; nothing to do.
	case *openflow.EchoRequest:
		_ = sess.conn.Send(&openflow.EchoReply{XID: m.XID, Data: m.Data, TableSeq: s.TableSeq()})
	case *openflow.FlowMod:
		if err := s.applyFlowMod(m); err != nil {
			_ = sess.conn.Send(&openflow.ErrorMsg{XID: m.XID, Code: openflow.ErrCodeBadRequest, Reason: err.Error()})
		}
	case *openflow.PacketOut:
		s.handlePacketOut(m)
	case *openflow.FlowMonitorRequest:
		s.mu.Lock()
		sess.monitored = true
		sess.monitorID = m.MonitorID
		s.mu.Unlock()
	case *openflow.StatsRequest:
		s.mu.Lock()
		s.stats.StatsRequests++
		reply := &openflow.StatsReply{
			XID:        m.XID,
			DatapathID: uint64(s.id),
			Entries:    s.entriesLocked(),
			Ports:      s.Ports(),
			Meters:     s.metersLocked(),
			TableSeq:   s.seq,
		}
		s.mu.Unlock()
		_ = sess.conn.Send(reply)
	case *openflow.MeterMod:
		if err := s.applyMeterMod(m); err != nil {
			_ = sess.conn.Send(&openflow.ErrorMsg{XID: m.XID, Code: openflow.ErrCodeBadRequest, Reason: err.Error()})
		}
	case *openflow.BarrierRequest:
		_ = sess.conn.Send(&openflow.BarrierReply{XID: m.XID})
	default:
		_ = sess.conn.Send(&openflow.ErrorMsg{
			XID: msg.XIDValue(), Code: openflow.ErrCodeBadRequest,
			Reason: fmt.Sprintf("unsupported message %s", msg.Type()),
		})
	}
}

// applyFlowMod mutates the flow table and fans out monitor events. The
// switch holds no list its reports cannot carry: every count in a
// StatsReply or FlowMonitorReply is 16 bits, and a clamped report would
// hide the entries or outputs past wire.MaxCount from the verifier.
func (s *Switch) applyFlowMod(m *openflow.FlowMod) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.FlowMods++
	if m.Command == openflow.FlowAdd || m.Command == openflow.FlowModify {
		if n, a := len(m.Entry.Match.Fields), len(m.Entry.Actions); n > wire.MaxCount || a > wire.MaxCount {
			return fmt.Errorf("flow entry with %d match fields and %d actions exceeds %d", n, a, wire.MaxCount)
		}
	}
	switch m.Command {
	case openflow.FlowAdd:
		// OpenFlow add replaces an entry with identical priority+match.
		for i, te := range s.table {
			if te.Priority == m.Entry.Priority && te.Match.Equal(m.Entry.Match) {
				s.table[i] = m.Entry
				s.emitEventLocked(openflow.FlowEventModified, m.Entry)
				return nil
			}
		}
		if err := s.insertLocked(m.Entry); err != nil {
			return err
		}
		s.emitEventLocked(openflow.FlowEventAdded, m.Entry)
	case openflow.FlowModify:
		modified := false
		for i, te := range s.table {
			if te.Match.Equal(m.Entry.Match) {
				s.table[i].Actions = m.Entry.Actions
				s.table[i].Cookie = m.Entry.Cookie
				s.emitEventLocked(openflow.FlowEventModified, s.table[i])
				modified = true
			}
		}
		if !modified {
			if err := s.insertLocked(m.Entry); err != nil {
				return err
			}
			s.emitEventLocked(openflow.FlowEventAdded, m.Entry)
		}
	case openflow.FlowDelete:
		kept := s.table[:0]
		for _, te := range s.table {
			del := false
			if m.Entry.Cookie != 0 {
				del = te.Cookie == m.Entry.Cookie
			} else {
				del = te.Match.Equal(m.Entry.Match)
			}
			if del {
				s.emitEventLocked(openflow.FlowEventRemoved, te)
			} else {
				kept = append(kept, te)
			}
		}
		s.table = kept
	case openflow.FlowDeleteStrict:
		kept := s.table[:0]
		for _, te := range s.table {
			if te.Priority == m.Entry.Priority && te.Match.Equal(m.Entry.Match) {
				s.emitEventLocked(openflow.FlowEventRemoved, te)
			} else {
				kept = append(kept, te)
			}
		}
		s.table = kept
	default:
		return fmt.Errorf("unknown flow-mod command %d", m.Command)
	}
	return nil
}

// entriesLocked snapshots the flow entries. Callers hold s.mu.
func (s *Switch) entriesLocked() []openflow.FlowEntry {
	out := make([]openflow.FlowEntry, len(s.table))
	copy(out, s.table)
	return out
}

// insertLocked places the entry keeping priority-descending stable order,
// refusing an entry past the count a StatsReply can carry.
func (s *Switch) insertLocked(e openflow.FlowEntry) error {
	if len(s.table) >= wire.MaxCount {
		return fmt.Errorf("flow table full: %d entries", len(s.table))
	}
	idx := sort.Search(len(s.table), func(i int) bool {
		return s.table[i].Priority < e.Priority
	})
	s.table = append(s.table, openflow.FlowEntry{})
	copy(s.table[idx+1:], s.table[idx:])
	s.table[idx] = e
	return nil
}

// SetEventSuppression toggles adversarial suppression of the flow-monitor
// channel (experiments only).
func (s *Switch) SetEventSuppression(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.suppressEvents = on
}

// emitEventLocked bumps the sequence number and notifies monitoring
// sessions. Callers hold s.mu.
func (s *Switch) emitEventLocked(kind openflow.FlowEventKind, e openflow.FlowEntry) {
	if s.suppressEvents {
		return
	}
	s.seq++
	for _, sess := range s.sessions {
		if !sess.monitored {
			continue
		}
		s.stats.MonitorEvents++
		ev := &openflow.FlowMonitorReply{
			XID:       s.nextXID + 1,
			MonitorID: sess.monitorID,
			Kind:      kind,
			Entry:     e,
			Seq:       s.seq,
		}
		// Send without holding up the table mutation path forever: the
		// channel has buffering; a wedged controller eventually blocks
		// table changes, which mirrors OpenFlow backpressure.
		_ = sess.conn.Send(ev)
	}
}

// handlePacketOut injects a controller-supplied frame into the data plane.
func (s *Switch) handlePacketOut(m *openflow.PacketOut) {
	pkt, err := wire.Unmarshal(m.Data)
	if err != nil {
		return
	}
	inPort := topology.PortNo(0)
	if m.InPort != 0 && m.InPort != openflow.AnyPort {
		inPort = topology.PortNo(m.InPort)
	}
	s.applyActions(pkt, inPort, m.Actions, 0)
}

// ProcessPacket runs one frame through the flow table. hop guards against
// forwarding loops in the fabric.
func (s *Switch) ProcessPacket(inPort topology.PortNo, pkt *wire.Packet, hop int) {
	s.mu.Lock()
	s.stats.RxPackets++
	matched := -1
	for i := range s.table {
		if s.table[i].Match.MatchesPacket(pkt, uint32(inPort)) {
			matched = i
			break
		}
	}
	if matched < 0 {
		s.stats.Dropped++
		s.mu.Unlock()
		return
	}
	entry := s.table[matched]
	if entry.MeterID != 0 && !s.meterAllowsLocked(entry.MeterID, pkt) {
		s.stats.Dropped++
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.applyActions(pkt, inPort, entry.Actions, entry.Cookie)
}

// applyActions executes an action list on a packet copy.
func (s *Switch) applyActions(pkt *wire.Packet, inPort topology.PortNo, actions []openflow.Action, cookie uint64) {
	cur := pkt.Clone()
	for _, a := range actions {
		switch a.Type {
		case openflow.ActionSetField:
			cur.SetField(a.Field, a.Value)
		case openflow.ActionPushVLAN:
			cur.SetField(wire.FieldVLAN, a.Value)
		case openflow.ActionPopVLAN:
			cur.VLAN = 0
		case openflow.ActionOutput:
			switch a.Port {
			case openflow.ControllerPort:
				s.sendPacketIn(inPort, cur, cookie)
			case openflow.FloodPort:
				for p := topology.PortNo(1); p <= s.numPorts; p++ {
					if p == inPort {
						continue
					}
					s.txOne(p, cur)
				}
			default:
				s.txOne(topology.PortNo(a.Port), cur)
			}
		}
	}
}

func (s *Switch) txOne(port topology.PortNo, pkt *wire.Packet) {
	if port == 0 || port > s.numPorts {
		return
	}
	s.mu.Lock()
	s.stats.TxPackets++
	s.mu.Unlock()
	s.transmit(port, pkt.Clone())
}

// sendPacketIn forwards a frame to every connected controller session.
func (s *Switch) sendPacketIn(inPort topology.PortNo, pkt *wire.Packet, cookie uint64) {
	data := pkt.Marshal()
	s.mu.Lock()
	s.stats.PacketIns++
	sessions := append([]*session(nil), s.sessions...)
	s.mu.Unlock()
	reason := openflow.ReasonAction
	if cookie == 0 {
		reason = openflow.ReasonNoMatch
	}
	for _, sess := range sessions {
		_ = sess.conn.Send(&openflow.PacketIn{
			XID:    s.xid(),
			Reason: reason,
			InPort: uint32(inPort),
			Cookie: cookie,
			Data:   data,
		})
	}
}

// ApplyFlowMod applies one flow modification exactly as if it had arrived
// on a control channel: the table mutates under the switch lock and monitor
// events fan out to every attached session. Remote programming planes (a
// switchd process applying trunk-delivered flow mods from the parent's
// provider controller) use this entry point.
func (s *Switch) ApplyFlowMod(m *openflow.FlowMod) error {
	return s.applyFlowMod(m)
}

// InstallDirect adds a flow entry bypassing the control channel. Tests and
// the compromised-controller simulator use it to model rule changes that
// arrive through the provider's own (untrusted) session.
func (s *Switch) InstallDirect(e openflow.FlowEntry) {
	_ = s.applyFlowMod(&openflow.FlowMod{Command: openflow.FlowAdd, Entry: e})
}

// RemoveDirect removes entries matching the entry's match, bypassing the
// control channel.
func (s *Switch) RemoveDirect(e openflow.FlowEntry) {
	_ = s.applyFlowMod(&openflow.FlowMod{Command: openflow.FlowDeleteStrict, Entry: e})
}
