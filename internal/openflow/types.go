// Package openflow implements the OpenFlow-subset control protocol the
// reproduction uses between switches and controllers: flow modification,
// packet-in/out, flow monitoring (the "add flow monitor" command the paper
// relies on for passive configuration monitoring), state polling, and an
// authenticated, encrypted channel (the paper's "encrypted OpenFlow
// sessions and a-priori configured switch certificates", §III).
package openflow

import (
	"fmt"
	"slices"

	"repro/internal/headerspace"
	"repro/internal/wire"
)

// Version is the protocol version byte of this OpenFlow subset.
const Version uint8 = 0x7A

// MsgType enumerates control messages.
type MsgType uint8

// Control message types.
const (
	TypeHello MsgType = iota + 1
	TypeEchoRequest
	TypeEchoReply
	TypeError
	TypeFlowMod
	TypePacketIn
	TypePacketOut
	TypeFlowMonitorRequest
	TypeFlowMonitorReply
	TypeStatsRequest
	TypeStatsReply
	TypeBarrierRequest
	TypeBarrierReply
	TypePortStatus
	TypeMeterMod
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeEchoRequest:
		return "echo-request"
	case TypeEchoReply:
		return "echo-reply"
	case TypeError:
		return "error"
	case TypeFlowMod:
		return "flow-mod"
	case TypePacketIn:
		return "packet-in"
	case TypePacketOut:
		return "packet-out"
	case TypeFlowMonitorRequest:
		return "flow-monitor-request"
	case TypeFlowMonitorReply:
		return "flow-monitor-reply"
	case TypeStatsRequest:
		return "stats-request"
	case TypeStatsReply:
		return "stats-reply"
	case TypeBarrierRequest:
		return "barrier-request"
	case TypeBarrierReply:
		return "barrier-reply"
	case TypePortStatus:
		return "port-status"
	case TypeMeterMod:
		return "meter-mod"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Message is any OpenFlow control message.
type Message interface {
	Type() MsgType
	// XIDValue returns the transaction id used for request/reply pairing.
	XIDValue() uint32
}

// AnyPort matches packets from any ingress port in a Match.
const AnyPort uint32 = 0xFFFFFFFF

// ControllerPort as an action output sends the packet to the controller
// (packet-in).
const ControllerPort uint32 = 0xFFFFFFFE

// FloodPort as an action output sends the packet out all ports except the
// ingress.
const FloodPort uint32 = 0xFFFFFFFD

// FieldMatch constrains one header field under a mask.
type FieldMatch struct {
	Field wire.Field
	Value uint64
	Mask  uint64
}

// Match is the OpenFlow match: an optional in-port plus field constraints.
// An empty Match matches everything.
type Match struct {
	InPort uint32 // AnyPort (default 0 also treated as any) or a port number
	Fields []FieldMatch
}

// Equal reports whether two matches constrain the same in-port and the
// same fields in the same order: the one definition of "the same match"
// the switch's flow-mod semantics and RVaaS's snapshot share.
func (m Match) Equal(o Match) bool {
	return m.InPort == o.InPort && slices.Equal(m.Fields, o.Fields)
}

// HasInPort reports whether the match constrains the ingress port.
func (m Match) HasInPort() bool { return m.InPort != 0 && m.InPort != AnyPort }

// ToHeader converts the field constraints into a header-space expression
// (the in-port is handled separately by the transfer-function layer).
func (m Match) ToHeader() headerspace.Header {
	h := headerspace.AllX(wire.HeaderWidth)
	for _, f := range m.Fields {
		fh := wire.FieldHeader(f.Field, f.Value, f.Mask)
		x, err := h.Intersect(fh)
		if err != nil {
			continue
		}
		h = x
	}
	return h
}

// MatchesPacket evaluates the match against a concrete packet arriving on
// inPort.
func (m Match) MatchesPacket(p *wire.Packet, inPort uint32) bool {
	if m.HasInPort() && m.InPort != inPort {
		return false
	}
	for _, f := range m.Fields {
		mask := wire.ClipMask(f.Field, f.Mask)
		if p.Field(f.Field)&mask != f.Value&mask {
			return false
		}
	}
	return true
}

// ActionType enumerates flow actions.
type ActionType uint8

// Flow actions.
const (
	ActionOutput ActionType = iota + 1
	ActionSetField
	ActionPushVLAN
	ActionPopVLAN
)

// Action is one instruction applied to matched packets.
type Action struct {
	Type ActionType
	// Port is the output port for ActionOutput (may be ControllerPort or
	// FloodPort).
	Port uint32
	// Field/Value configure ActionSetField and ActionPushVLAN.
	Field wire.Field
	Value uint64
}

// Output builds an output action.
func Output(port uint32) Action { return Action{Type: ActionOutput, Port: port} }

// SetField builds a set-field action.
func SetField(f wire.Field, v uint64) Action {
	return Action{Type: ActionSetField, Field: f, Value: v}
}

// FlowEntry is one installed rule.
type FlowEntry struct {
	Priority    uint16
	Match       Match
	Actions     []Action
	Cookie      uint64
	IdleTimeout uint16
	HardTimeout uint16
	// MeterID attaches a rate-limiting meter (0 = none). The paper's
	// neutrality discussion explicitly covers "whether allocated routes and
	// meter tables meet network neutrality requirements" (§IV-C).
	MeterID uint32
}

// Equal is the one definition of "the same rule": priority, match, actions
// in order, cookie and meter. Timeouts are not compared: no component
// expires a rule, so they never change what an entry forwards.
func (e FlowEntry) Equal(o FlowEntry) bool {
	return e.Priority == o.Priority && e.Cookie == o.Cookie && e.MeterID == o.MeterID &&
		e.Match.Equal(o.Match) && slices.Equal(e.Actions, o.Actions)
}

// FlowModCommand selects the flow-mod operation.
type FlowModCommand uint8

// Flow-mod commands.
const (
	FlowAdd FlowModCommand = iota + 1
	FlowModify
	FlowDelete
	FlowDeleteStrict
)

// Basic messages ------------------------------------------------------------

// Hello opens a session.
type Hello struct {
	XID        uint32
	DatapathID uint64 // sender identity (switch) or 0 (controller)
}

// Type implements Message.
func (m *Hello) Type() MsgType { return TypeHello }

// XIDValue implements Message.
func (m *Hello) XIDValue() uint32 { return m.XID }

// EchoRequest is a liveness probe.
type EchoRequest struct {
	XID  uint32
	Data []byte
}

// Type implements Message.
func (m *EchoRequest) Type() MsgType { return TypeEchoRequest }

// XIDValue implements Message.
func (m *EchoRequest) XIDValue() uint32 { return m.XID }

// EchoReply answers an EchoRequest. A switch also reports its table-change
// sequence: every event up to it was sent ahead of the reply on the same
// channel, so a controller whose snapshot is behind it lost an event.
type EchoReply struct {
	XID      uint32
	Data     []byte
	TableSeq uint64
}

// Type implements Message.
func (m *EchoReply) Type() MsgType { return TypeEchoReply }

// XIDValue implements Message.
func (m *EchoReply) XIDValue() uint32 { return m.XID }

// ErrorMsg reports a protocol error.
type ErrorMsg struct {
	XID    uint32
	Code   uint16
	Reason string
}

// Error codes.
const (
	ErrCodeBadRequest uint16 = iota + 1
	ErrCodePermission
	ErrCodeBadMatch
	ErrCodeTableFull
)

// Type implements Message.
func (m *ErrorMsg) Type() MsgType { return TypeError }

// XIDValue implements Message.
func (m *ErrorMsg) XIDValue() uint32 { return m.XID }

// FlowMod installs, modifies or removes flow entries.
type FlowMod struct {
	XID     uint32
	Command FlowModCommand
	Entry   FlowEntry
}

// Type implements Message.
func (m *FlowMod) Type() MsgType { return TypeFlowMod }

// XIDValue implements Message.
func (m *FlowMod) XIDValue() uint32 { return m.XID }

// PacketInReason explains why a packet was sent to the controller.
type PacketInReason uint8

// Packet-in reasons.
const (
	ReasonNoMatch PacketInReason = iota + 1
	ReasonAction
)

// PacketIn delivers a data-plane packet to the controller.
type PacketIn struct {
	XID    uint32
	Reason PacketInReason
	InPort uint32
	// Cookie of the rule that triggered the packet-in (0 for table miss).
	Cookie uint64
	Data   []byte // full frame bytes
}

// Type implements Message.
func (m *PacketIn) Type() MsgType { return TypePacketIn }

// XIDValue implements Message.
func (m *PacketIn) XIDValue() uint32 { return m.XID }

// PacketOut injects a packet into the data plane.
type PacketOut struct {
	XID     uint32
	InPort  uint32 // treated as the packet's logical ingress (AnyPort ok)
	Actions []Action
	Data    []byte
}

// Type implements Message.
func (m *PacketOut) Type() MsgType { return TypePacketOut }

// XIDValue implements Message.
func (m *PacketOut) XIDValue() uint32 { return m.XID }

// FlowMonitorRequest subscribes the sender to flow-table change events
// (OpenFlow 1.4 "flow monitor"; the paper's passive monitoring primitive).
type FlowMonitorRequest struct {
	XID uint32
	// MonitorID distinguishes multiple subscriptions.
	MonitorID uint32
}

// Type implements Message.
func (m *FlowMonitorRequest) Type() MsgType { return TypeFlowMonitorRequest }

// XIDValue implements Message.
func (m *FlowMonitorRequest) XIDValue() uint32 { return m.XID }

// FlowEventKind is the kind of a flow monitor event.
type FlowEventKind uint8

// Flow monitor event kinds.
const (
	FlowEventAdded FlowEventKind = iota + 1
	FlowEventRemoved
	FlowEventModified
)

// FlowMonitorReply carries one table-change event.
type FlowMonitorReply struct {
	XID       uint32
	MonitorID uint32
	Kind      FlowEventKind
	Entry     FlowEntry
	// Seq is a per-switch monotonically increasing event number, letting
	// subscribers detect gaps (lost events force a full resync).
	Seq uint64
}

// Type implements Message.
func (m *FlowMonitorReply) Type() MsgType { return TypeFlowMonitorReply }

// XIDValue implements Message.
func (m *FlowMonitorReply) XIDValue() uint32 { return m.XID }

// StatsRequest polls the switch's full flow table (the paper's active
// "query the switch state").
type StatsRequest struct {
	XID uint32
}

// Type implements Message.
func (m *StatsRequest) Type() MsgType { return TypeStatsRequest }

// XIDValue implements Message.
func (m *StatsRequest) XIDValue() uint32 { return m.XID }

// MeterConfig is one meter-table entry: a token-bucket rate limiter flow
// entries can reference via MeterID.
type MeterConfig struct {
	MeterID  uint32
	RateKbps uint32
	BurstKB  uint32
}

// MeterModCommand selects the meter-mod operation.
type MeterModCommand uint8

// Meter-mod commands.
const (
	MeterAdd MeterModCommand = iota + 1
	MeterDelete
)

// MeterMod installs or removes a meter.
type MeterMod struct {
	XID     uint32
	Command MeterModCommand
	Config  MeterConfig
}

// Type implements Message.
func (m *MeterMod) Type() MsgType { return TypeMeterMod }

// XIDValue implements Message.
func (m *MeterMod) XIDValue() uint32 { return m.XID }

// StatsReply returns the full flow table plus port list and meter table.
type StatsReply struct {
	XID        uint32
	DatapathID uint64
	Entries    []FlowEntry
	Ports      []uint32
	Meters     []MeterConfig
	// TableSeq is the switch's current event sequence number at snapshot
	// time, aligning polls with the monitor event stream.
	TableSeq uint64
}

// Type implements Message.
func (m *StatsReply) Type() MsgType { return TypeStatsReply }

// XIDValue implements Message.
func (m *StatsReply) XIDValue() uint32 { return m.XID }

// BarrierRequest forces ordering: the switch answers after processing all
// preceding messages.
type BarrierRequest struct {
	XID uint32
}

// Type implements Message.
func (m *BarrierRequest) Type() MsgType { return TypeBarrierRequest }

// XIDValue implements Message.
func (m *BarrierRequest) XIDValue() uint32 { return m.XID }

// BarrierReply answers a BarrierRequest.
type BarrierReply struct {
	XID uint32
}

// Type implements Message.
func (m *BarrierReply) Type() MsgType { return TypeBarrierReply }

// XIDValue implements Message.
func (m *BarrierReply) XIDValue() uint32 { return m.XID }

// PortStatus reports a port coming up or going down.
type PortStatus struct {
	XID  uint32
	Port uint32
	Up   bool
}

// Type implements Message.
func (m *PortStatus) Type() MsgType { return TypePortStatus }

// XIDValue implements Message.
func (m *PortStatus) XIDValue() uint32 { return m.XID }

// Compile-time interface checks.
var (
	_ Message = (*Hello)(nil)
	_ Message = (*EchoRequest)(nil)
	_ Message = (*EchoReply)(nil)
	_ Message = (*ErrorMsg)(nil)
	_ Message = (*FlowMod)(nil)
	_ Message = (*PacketIn)(nil)
	_ Message = (*PacketOut)(nil)
	_ Message = (*FlowMonitorRequest)(nil)
	_ Message = (*FlowMonitorReply)(nil)
	_ Message = (*StatsRequest)(nil)
	_ Message = (*StatsReply)(nil)
	_ Message = (*BarrierRequest)(nil)
	_ Message = (*BarrierReply)(nil)
	_ Message = (*PortStatus)(nil)
	_ Message = (*MeterMod)(nil)
)
