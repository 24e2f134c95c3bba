package rvaas

import (
	"crypto/sha256"

	"repro/internal/topology"
	"repro/internal/wire"
)

// Active wiring verification: RVaaS can "issue and later intercept LLDP
// like packets through all internal ports" (§IV-A1) to confirm the physical
// wiring plan matches reality. Probe payloads carry an HMAC derived from
// the enclave key so the (compromised) provider controller cannot forge
// plausible probes.

// probeMAC computes the authenticator for a probe payload.
func (c *Controller) probeMAC(pp *wire.ProbePayload) []byte {
	sig := c.enclave.Sign(append([]byte("probe."), pp.SigningBytes()...))
	sum := sha256.Sum256(sig)
	return sum[:16]
}

// ProbeSweep injects one probe out of every internal port and returns the
// number issued. Confirmations arrive asynchronously as Packet-Ins; call
// WiringReport afterwards (allowing a short delivery delay) to see the
// result.
func (c *Controller) ProbeSweep() int {
	issued := 0
	for _, l := range c.topo.Links() {
		for _, dir := range [][2]topology.Endpoint{{l.A, l.B}, {l.B, l.A}} {
			from, to := dir[0], dir[1]
			c.mu.Lock()
			c.probeNext++
			id := c.probeNext
			c.probeExpect[id] = to
			c.mu.Unlock()
			pp := &wire.ProbePayload{
				ProbeID:    id,
				SrcSwitch:  uint32(from.Switch),
				SrcPort:    uint32(from.Port),
				IssuedUnix: c.cfg.Clock().Unix(),
			}
			pp.MAC = c.probeMAC(pp)
			if err := c.sendPacketOut(from.Switch, from.Port, wire.NewProbePacket(pp)); err == nil {
				issued++
			}
		}
	}
	return issued
}

// handleProbe processes an intercepted probe frame: verify the MAC, then
// record at which (switch, port) it actually arrived.
func (c *Controller) handleProbe(sw topology.SwitchID, inPort topology.PortNo, pkt *wire.Packet) {
	pp, err := wire.UnmarshalProbePayload(pkt.Payload)
	if err != nil {
		return
	}
	want := c.probeMAC(&wire.ProbePayload{
		ProbeID:    pp.ProbeID,
		SrcSwitch:  pp.SrcSwitch,
		SrcPort:    pp.SrcPort,
		IssuedUnix: pp.IssuedUnix,
	})
	if !hmacEqual(want, pp.MAC) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, expected := c.probeExpect[pp.ProbeID]; !expected {
		return
	}
	c.probeConfirm[pp.ProbeID] = topology.Endpoint{Switch: sw, Port: inPort}
}

func hmacEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var diff byte
	for i := range a {
		diff |= a[i] ^ b[i]
	}
	return diff == 0
}

// WiringMismatch describes one probe that did not arrive where the wiring
// plan says it should.
type WiringMismatch struct {
	ProbeID  uint64
	Expected topology.Endpoint
	// Actual is the zero Endpoint when the probe was never seen.
	Actual topology.Endpoint
	Lost   bool
}

// WiringReport compares issued probes against confirmations and clears the
// probe state. Call after ProbeSweep (+ a settling delay when the fabric is
// asynchronous).
func (c *Controller) WiringReport() []WiringMismatch {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []WiringMismatch
	for id, want := range c.probeExpect {
		got, seen := c.probeConfirm[id]
		switch {
		case !seen:
			out = append(out, WiringMismatch{ProbeID: id, Expected: want, Lost: true})
		case got != want:
			out = append(out, WiringMismatch{ProbeID: id, Expected: want, Actual: got})
		}
	}
	c.probeExpect = make(map[uint64]topology.Endpoint)
	c.probeConfirm = make(map[uint64]topology.Endpoint)
	return out
}
