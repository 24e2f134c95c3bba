package openflow

import (
	"repro/internal/headerspace"
	"repro/internal/wire"
)

// BuildTransferFunction compiles a flow table into a header-space transfer
// function over the switch's port set. This is the bridge between the
// configuration snapshots RVaaS collects and its logical verification step
// (paper §IV-A2: "relevant routes are computed in the logical space, given
// the current network snapshot").
//
// Semantics:
//   - Output(port) emits on that port.
//   - Output(ControllerPort) is control traffic and is excluded from
//     data-plane reachability. Rules whose ONLY output is the controller
//     (e.g. RVaaS's own magic-header interception rules) are treated as
//     TRANSPARENT: they are omitted rather than modelled as drops. This is
//     a deliberate, conservative over-approximation — the tiny header
//     slivers they intercept are reported as reachable even though they
//     would be diverted to the controller — chosen because exact
//     subtraction of every interception match multiplies the term count of
//     every flow crossing every switch. Over-approximating reachability can
//     only add endpoints to a report (false alarms), never hide one.
//   - Output(FloodPort) is expanded into one HSA rule per ingress port,
//     emitting on every other port (matching data-plane flood semantics).
//   - SetField actions become rewrite masks.
//   - Entries with no output action at all act as drop rules (they still
//     consume their match, shadowing lower priorities).
func BuildTransferFunction(entries []FlowEntry, ports []uint32) *headerspace.TransferFunction {
	tf := headerspace.NewTransferFunction(wire.HeaderWidth)
	for _, e := range entries {
		if controllerOnly(e.Actions) {
			continue
		}
		match := e.Match.ToHeader()
		var inPorts []headerspace.PortID
		if e.Match.HasInPort() {
			inPorts = []headerspace.PortID{headerspace.PortID(e.Match.InPort)}
		}
		mask, value := rewriteOf(e.Actions)

		outPorts, flood := dataPlaneOutputs(e.Actions)
		if !flood {
			rule := headerspace.Rule{
				Priority: int(e.Priority),
				Match:    match,
				InPorts:  inPorts,
				Mask:     mask,
				Value:    value,
				OutPorts: outPorts,
			}
			// AddRule cannot fail here: widths are fixed by construction.
			_ = tf.AddRule(rule)
			continue
		}
		// Flood: one rule per ingress port so "all except ingress" holds.
		candidates := ports
		if e.Match.HasInPort() {
			candidates = []uint32{e.Match.InPort}
		}
		for _, in := range candidates {
			var outs []headerspace.PortID
			outs = append(outs, outPorts...)
			for _, p := range ports {
				if p != in {
					outs = append(outs, headerspace.PortID(p))
				}
			}
			_ = tf.AddRule(headerspace.Rule{
				Priority: int(e.Priority),
				Match:    match,
				InPorts:  []headerspace.PortID{headerspace.PortID(in)},
				Mask:     mask,
				Value:    value,
				OutPorts: outs,
			})
		}
	}
	return tf
}

// DataPlaneTransparent reports whether the entry is omitted from the
// compiled transfer function entirely (all its outputs target the
// controller — see the BuildTransferFunction semantics above). Such
// entries neither forward, drop, nor shadow data-plane traffic in the
// logical model, so adding or removing one cannot change any reachability
// evaluation; the snapshot store's rule-delta diff uses this to exclude
// them from both the change set and the shadow set.
func (e FlowEntry) DataPlaneTransparent() bool { return controllerOnly(e.Actions) }

// controllerOnly reports whether the action list has output actions and all
// of them target the controller.
func controllerOnly(actions []Action) bool {
	sawOutput := false
	for _, a := range actions {
		if a.Type != ActionOutput {
			continue
		}
		sawOutput = true
		if a.Port != ControllerPort {
			return false
		}
	}
	return sawOutput
}

// dataPlaneOutputs extracts concrete output ports and whether the action
// list floods.
func dataPlaneOutputs(actions []Action) (outs []headerspace.PortID, flood bool) {
	for _, a := range actions {
		if a.Type != ActionOutput {
			continue
		}
		switch a.Port {
		case ControllerPort:
			// excluded from data-plane reachability
		case FloodPort:
			flood = true
		default:
			outs = append(outs, headerspace.PortID(a.Port))
		}
	}
	return outs, flood
}

// rewriteOf folds SetField actions into a mask/value header pair. Mask is
// Bit1 at rewritten positions and Bit0 elsewhere; a zero-width pair means no
// rewrite.
func rewriteOf(actions []Action) (mask, value headerspace.Header) {
	hasRewrite := false
	m := headerspace.Filled(wire.HeaderWidth, headerspace.Bit0)
	v := headerspace.AllX(wire.HeaderWidth)
	for _, a := range actions {
		if a.Type != ActionSetField {
			continue
		}
		hasRewrite = true
		off, w := wire.FieldOffset(a.Field)
		for i := 0; i < w; i++ {
			m = m.SetBit(off+i, headerspace.Bit1)
			if a.Value>>uint(i)&1 == 1 {
				v = v.SetBit(off+i, headerspace.Bit1)
			} else {
				v = v.SetBit(off+i, headerspace.Bit0)
			}
		}
	}
	if !hasRewrite {
		return headerspace.Header{}, headerspace.Header{}
	}
	return m, v
}
