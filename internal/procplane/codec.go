package procplane

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Trunk message types. The trunk is a hub-and-spoke TCP connection between
// the deploy controller and each placed process, framed as
// [4-byte big-endian length][1-byte type][payload] where the length counts
// the type byte and the payload.
const (
	// MsgJoin (child -> controller, JSON JoinRequest) presents the group's
	// token and, for switchd, a CSR-style public key per hosted switch.
	MsgJoin byte = 1
	// MsgJoinAck (controller -> child, JSON JoinAck) carries the lab spec,
	// channel credentials and trust anchors — or a refusal.
	MsgJoinAck byte = 2
	// MsgRegister (agentd -> controller, JSON Register) announces the
	// agents' auth-reply verification keys after agent creation.
	MsgRegister byte = 3
	// MsgRegisterAck (controller -> agentd, JSON RegisterAck) confirms the
	// keys are registered so the agents may start querying.
	MsgRegisterAck byte = 4
	// MsgFramePort hands a frame to an unowned switch's ingress port
	// (a link traversal crossing the process seam; TTL already handled).
	MsgFramePort byte = 5
	// MsgFrameHost hands a frame to the host NIC at an edge endpoint.
	MsgFrameHost byte = 6
	// MsgFrameInject injects a frame originated by a host at its access
	// endpoint (an agentd NIC send entering the fabric).
	MsgFrameInject byte = 7
	// MsgFlowMod (controller -> switchd) programs one flow modification on
	// a hosted switch. Fire-and-forget: the provider's programming plane is
	// untrusted by design, and the verification plane observes the switch's
	// actual state over its own secure channel.
	MsgFlowMod byte = 8
	// MsgBeat is a liveness beat (child -> controller, empty payload).
	MsgBeat byte = 9
)

// BeatInterval is the default child liveness beat period; specs override
// it via placement.beatInterval (labspec.DefaultBeatInterval mirrors this).
const BeatInterval = 250 * time.Millisecond

// maxTrunkMsg bounds one trunk message (the lab spec for a large explicit
// topology is the biggest payload).
const maxTrunkMsg = 8 << 20

// JoinRequest is the first message a placed process sends on its trunk.
type JoinRequest struct {
	Lab   string `json:"lab"`
	Group string `json:"group"`
	Token string `json:"token"`
	Kind  string `json:"kind"`
	// SwitchKeys maps switch id -> ed25519 public key. The child generates
	// each switch identity locally and sends only the public half; the
	// controller's CA answers with certificates (private keys never cross
	// the process boundary).
	SwitchKeys map[uint32][]byte `json:"switchKeys,omitempty"`
	// Agents lists the client IDs this process will host agents for.
	Agents []uint64 `json:"agents,omitempty"`
}

// JoinAck answers a JoinRequest. A non-empty Error refuses the join and
// carries no credentials.
type JoinAck struct {
	Error string `json:"error,omitempty"`
	// Retry marks a refusal as transient (trunk partitioned, previous
	// session not yet reaped): the child may back off and rejoin rather
	// than exit.
	Retry bool `json:"retry,omitempty"`
	// Spec is the canonical lab spec JSON; the child rebuilds the topology
	// from it, which is deterministic, so both sides agree on wiring and
	// host addressing without shipping derived state.
	Spec json.RawMessage `json:"spec,omitempty"`
	// AttachAddr is the controller's UDP secure-channel listener a switchd
	// child dials once per hosted switch.
	AttachAddr string `json:"attachAddr,omitempty"`
	// CAPub is the channel CA's public key (verifies the controller's
	// certificate during the secure handshake).
	CAPub []byte `json:"caPub,omitempty"`
	// Certs maps switch id -> the certificate issued for the join's CSR key.
	Certs map[uint32]openflow.Certificate `json:"certs,omitempty"`
	// PlatformRoot / Measurement / ServerKey are the agentd trust anchors:
	// the enclave platform root, the expected RVaaS code measurement, and
	// the controller's attested response-signing key.
	PlatformRoot []byte `json:"platformRoot,omitempty"`
	Measurement  []byte `json:"measurement,omitempty"`
	ServerKey    []byte `json:"serverKey,omitempty"`
}

// Register announces an agentd child's client verification keys.
type Register struct {
	// Keys maps client id -> the agent's ed25519 auth-reply public key.
	Keys map[uint64][]byte `json:"keys"`
}

// RegisterAck confirms (or refuses) a Register.
type RegisterAck struct {
	Error string `json:"error,omitempty"`
}

// Conn frames trunk messages over a TCP connection. Writes are serialized
// internally so fabric hand-offs, beats and programming traffic can share
// one trunk from concurrent goroutines; Read must be driven by one reader.
type Conn struct {
	nc net.Conn
	r  *bufio.Reader

	wmu sync.Mutex
	wb  []byte
}

// NewConn wraps a network connection in trunk framing.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, r: bufio.NewReaderSize(nc, 64<<10)}
}

// Write sends one framed message.
func (t *Conn) Write(typ byte, payload []byte) error {
	if len(payload)+1 > maxTrunkMsg {
		return fmt.Errorf("procplane: trunk message of %d bytes exceeds limit", len(payload))
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	w := wire.NewWriter(t.wb[:0])
	w.U32(uint32(1 + len(payload)))
	w.U8(typ)
	w.Raw(payload)
	t.wb = w.Bytes()
	if _, err := t.nc.Write(t.wb); err != nil {
		return fmt.Errorf("procplane: trunk write: %w", err)
	}
	return nil
}

// WriteJSON sends one framed JSON message.
func (t *Conn) WriteJSON(typ byte, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("procplane: encode trunk message: %w", err)
	}
	return t.Write(typ, b)
}

// Read receives the next framed message.
func (t *Conn) Read() (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	r := wire.NewReader(hdr[:])
	n := r.U32()
	if n == 0 || n > maxTrunkMsg {
		return 0, nil, fmt.Errorf("procplane: bad trunk frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(t.r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// SetReadDeadline bounds the next Read (zero time clears it).
func (t *Conn) SetReadDeadline(at time.Time) error {
	return t.nc.SetReadDeadline(at)
}

// RemoteAddr reports the peer address.
func (t *Conn) RemoteAddr() net.Addr { return t.nc.RemoteAddr() }

// Close closes the underlying connection (unblocking any Read).
func (t *Conn) Close() error { return t.nc.Close() }

// EncodeFrame packs a data-plane frame hand-off: the target endpoint and
// the packet's wire form.
func EncodeFrame(ep topology.Endpoint, pkt *wire.Packet) []byte {
	b := pkt.Marshal()
	w := wire.NewWriter(make([]byte, 0, 8+len(b)))
	w.U32(uint32(ep.Switch))
	w.U32(uint32(ep.Port))
	w.Raw(b)
	return w.Bytes()
}

// DecodeFrame unpacks a data-plane frame hand-off.
func DecodeFrame(p []byte) (topology.Endpoint, *wire.Packet, error) {
	r := wire.NewReader(p)
	ep := topology.Endpoint{Switch: topology.SwitchID(r.U32()), Port: topology.PortNo(r.U32())}
	if r.Err() != nil {
		return topology.Endpoint{}, nil, fmt.Errorf("procplane: short frame payload (%d bytes)", len(p))
	}
	pkt, err := wire.Unmarshal(r.Rest())
	if err != nil {
		return topology.Endpoint{}, nil, fmt.Errorf("procplane: frame packet: %w", err)
	}
	return ep, pkt, nil
}

// EncodeFlowMod packs a flow programming message for one switch, reusing
// the openflow message codec for the modification itself.
func EncodeFlowMod(sw topology.SwitchID, mod *openflow.FlowMod) []byte {
	b := openflow.Encode(mod)
	w := wire.NewWriter(make([]byte, 0, 4+len(b)))
	w.U32(uint32(sw))
	w.Raw(b)
	return w.Bytes()
}

// DecodeFlowMod unpacks a flow programming message.
func DecodeFlowMod(p []byte) (topology.SwitchID, *openflow.FlowMod, error) {
	r := wire.NewReader(p)
	sw := topology.SwitchID(r.U32())
	if r.Err() != nil {
		return 0, nil, fmt.Errorf("procplane: short flowmod payload (%d bytes)", len(p))
	}
	m, _, err := openflow.Decode(r.Rest())
	if err != nil {
		return 0, nil, fmt.Errorf("procplane: flowmod: %w", err)
	}
	mod, ok := m.(*openflow.FlowMod)
	if !ok {
		return 0, nil, fmt.Errorf("procplane: flowmod payload decoded to %T", m)
	}
	return sw, mod, nil
}
