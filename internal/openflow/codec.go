package openflow

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Codec errors.
var (
	ErrShortMessage = errors.New("openflow: short message")
	ErrBadVersion   = errors.New("openflow: bad version")
	ErrUnknownType  = errors.New("openflow: unknown message type")

	errTrailingBytes = errors.New("openflow: trailing bytes after message body")
)

const envelopeLen = 1 + 1 + 4 // version, type, body length

// Encode serializes a message with its envelope.
func Encode(m Message) []byte {
	var body wire.Writer
	encodeBody(&body, m)
	w := wire.NewWriter(make([]byte, 0, envelopeLen+len(body.Bytes())))
	w.U8(Version)
	w.U8(byte(m.Type()))
	w.Bytes32(body.Bytes())
	return w.Bytes()
}

// Decode parses one message from data and returns it along with the number
// of bytes consumed, allowing streams of concatenated messages.
func Decode(data []byte) (Message, int, error) {
	r := wire.NewReader(data)
	version, t, n := r.U8(), MsgType(r.U8()), int(r.U32())
	if r.Err() != nil {
		return nil, 0, ErrShortMessage
	}
	if version != Version {
		return nil, 0, ErrBadVersion
	}
	if n > r.Len() {
		return nil, 0, ErrShortMessage
	}
	total := envelopeLen + n
	m, err := decodeBody(t, data[envelopeLen:total])
	if err != nil {
		return nil, 0, err
	}
	return m, total, nil
}

// Strings and byte payloads carry 32-bit length prefixes on this channel.
func putStr(w *wire.Writer, s string) { w.Bytes32([]byte(s)) }

func getStr(r *wire.Reader) string { return string(r.Bytes32()) }

func encodeMatch(w *wire.Writer, m Match) {
	w.U32(m.InPort)
	n := w.Count16(len(m.Fields))
	for _, f := range m.Fields[:n] {
		w.U8(uint8(f.Field))
		w.U64(f.Value)
		w.U64(f.Mask)
	}
}

func decodeMatch(r *wire.Reader) Match {
	m := Match{InPort: r.U32()}
	n := int(r.U16())
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Fields = append(m.Fields, FieldMatch{Field: wire.Field(r.U8()), Value: r.U64(), Mask: r.U64()})
	}
	return m
}

func encodeActions(w *wire.Writer, as []Action) {
	n := w.Count16(len(as))
	for _, a := range as[:n] {
		w.U8(uint8(a.Type))
		w.U32(a.Port)
		w.U8(uint8(a.Field))
		w.U64(a.Value)
	}
}

func decodeActions(r *wire.Reader) []Action {
	n := int(r.U16())
	var as []Action
	for i := 0; i < n && r.Err() == nil; i++ {
		as = append(as, Action{Type: ActionType(r.U8()), Port: r.U32(), Field: wire.Field(r.U8()), Value: r.U64()})
	}
	return as
}

func encodeEntry(w *wire.Writer, fe FlowEntry) {
	w.U16(fe.Priority)
	encodeMatch(w, fe.Match)
	encodeActions(w, fe.Actions)
	w.U64(fe.Cookie)
	w.U16(fe.IdleTimeout)
	w.U16(fe.HardTimeout)
	w.U32(fe.MeterID)
}

func decodeEntry(r *wire.Reader) FlowEntry {
	return FlowEntry{
		Priority:    r.U16(),
		Match:       decodeMatch(r),
		Actions:     decodeActions(r),
		Cookie:      r.U64(),
		IdleTimeout: r.U16(),
		HardTimeout: r.U16(),
		MeterID:     r.U32(),
	}
}

func encodeMeter(w *wire.Writer, mc MeterConfig) {
	w.U32(mc.MeterID)
	w.U32(mc.RateKbps)
	w.U32(mc.BurstKB)
}

func decodeMeter(r *wire.Reader) MeterConfig {
	return MeterConfig{MeterID: r.U32(), RateKbps: r.U32(), BurstKB: r.U32()}
}

func encodeBody(w *wire.Writer, m Message) {
	switch v := m.(type) {
	case *Hello:
		w.U32(v.XID)
		w.U64(v.DatapathID)
	case *EchoRequest:
		w.U32(v.XID)
		w.Bytes32(v.Data)
	case *EchoReply:
		w.U32(v.XID)
		w.Bytes32(v.Data)
		w.U64(v.TableSeq)
	case *ErrorMsg:
		w.U32(v.XID)
		w.U16(v.Code)
		putStr(w, v.Reason)
	case *FlowMod:
		w.U32(v.XID)
		w.U8(uint8(v.Command))
		encodeEntry(w, v.Entry)
	case *PacketIn:
		w.U32(v.XID)
		w.U8(uint8(v.Reason))
		w.U32(v.InPort)
		w.U64(v.Cookie)
		w.Bytes32(v.Data)
	case *PacketOut:
		w.U32(v.XID)
		w.U32(v.InPort)
		encodeActions(w, v.Actions)
		w.Bytes32(v.Data)
	case *FlowMonitorRequest:
		w.U32(v.XID)
		w.U32(v.MonitorID)
	case *FlowMonitorReply:
		w.U32(v.XID)
		w.U32(v.MonitorID)
		w.U8(uint8(v.Kind))
		encodeEntry(w, v.Entry)
		w.U64(v.Seq)
	case *StatsRequest:
		w.U32(v.XID)
	case *StatsReply:
		w.U32(v.XID)
		w.U64(v.DatapathID)
		n := w.Count16(len(v.Entries))
		for _, fe := range v.Entries[:n] {
			encodeEntry(w, fe)
		}
		n = w.Count16(len(v.Ports))
		for _, p := range v.Ports[:n] {
			w.U32(p)
		}
		n = w.Count16(len(v.Meters))
		for _, mc := range v.Meters[:n] {
			encodeMeter(w, mc)
		}
		w.U64(v.TableSeq)
	case *BarrierRequest:
		w.U32(v.XID)
	case *BarrierReply:
		w.U32(v.XID)
	case *PortStatus:
		w.U32(v.XID)
		w.U32(v.Port)
		w.Bool(v.Up)
	case *MeterMod:
		w.U32(v.XID)
		w.U8(uint8(v.Command))
		encodeMeter(w, v.Config)
	default:
		// Unknown concrete type: encode nothing; Decode will fail loudly.
	}
}

// decodeBody is strict: a short body is ErrShortMessage, and bytes left
// over after the last field are rejected, so an encoder and decoder that
// disagree on a layout fail loudly instead of half-parsing.
func decodeBody(t MsgType, body []byte) (Message, error) {
	r := wire.NewReader(body)
	var m Message
	switch t {
	case TypeHello:
		m = &Hello{XID: r.U32(), DatapathID: r.U64()}
	case TypeEchoRequest:
		m = &EchoRequest{XID: r.U32(), Data: r.Bytes32()}
	case TypeEchoReply:
		m = &EchoReply{XID: r.U32(), Data: r.Bytes32(), TableSeq: r.U64()}
	case TypeError:
		m = &ErrorMsg{XID: r.U32(), Code: r.U16(), Reason: getStr(&r)}
	case TypeFlowMod:
		m = &FlowMod{XID: r.U32(), Command: FlowModCommand(r.U8()), Entry: decodeEntry(&r)}
	case TypePacketIn:
		m = &PacketIn{XID: r.U32(), Reason: PacketInReason(r.U8()), InPort: r.U32(), Cookie: r.U64(), Data: r.Bytes32()}
	case TypePacketOut:
		m = &PacketOut{XID: r.U32(), InPort: r.U32(), Actions: decodeActions(&r), Data: r.Bytes32()}
	case TypeFlowMonitorRequest:
		m = &FlowMonitorRequest{XID: r.U32(), MonitorID: r.U32()}
	case TypeFlowMonitorReply:
		m = &FlowMonitorReply{XID: r.U32(), MonitorID: r.U32(), Kind: FlowEventKind(r.U8()), Entry: decodeEntry(&r), Seq: r.U64()}
	case TypeStatsRequest:
		m = &StatsRequest{XID: r.U32()}
	case TypeStatsReply:
		sr := &StatsReply{XID: r.U32(), DatapathID: r.U64()}
		n := int(r.U16())
		for i := 0; i < n && r.Err() == nil; i++ {
			sr.Entries = append(sr.Entries, decodeEntry(&r))
		}
		n = int(r.U16())
		for i := 0; i < n && r.Err() == nil; i++ {
			sr.Ports = append(sr.Ports, r.U32())
		}
		n = int(r.U16())
		for i := 0; i < n && r.Err() == nil; i++ {
			sr.Meters = append(sr.Meters, decodeMeter(&r))
		}
		sr.TableSeq = r.U64()
		m = sr
	case TypeBarrierRequest:
		m = &BarrierRequest{XID: r.U32()}
	case TypeBarrierReply:
		m = &BarrierReply{XID: r.U32()}
	case TypePortStatus:
		m = &PortStatus{XID: r.U32(), Port: r.U32(), Up: r.Bool()}
	case TypeMeterMod:
		m = &MeterMod{XID: r.U32(), Command: MeterModCommand(r.U8()), Config: decodeMeter(&r)}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	if r.Err() != nil {
		return nil, ErrShortMessage
	}
	if r.Len() != 0 {
		return nil, errTrailingBytes
	}
	return m, nil
}
