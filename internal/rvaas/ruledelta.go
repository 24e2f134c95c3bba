package rvaas

import (
	"sort"

	"repro/internal/headerspace"
	"repro/internal/openflow"
	"repro/internal/wire"
)

// Rule-delta extraction: when a switch's flow table changes, the set of
// packets whose forwarding behavior can differ between the old and the new
// table is bounded by the union of the changed rules' match spaces, minus
// everything shadowed by higher-priority rules present identically in both
// tables (a packet handled by an unchanged higher-priority rule never
// reaches a changed rule in either table, so its behavior is identical).
// The subscription engine dispatches re-verification only to invariants
// whose recorded traversal slice overlaps this delta — the
// Veriflow/NetPlumber-style refinement of per-switch dirty dispatch. A
// fully shadowed change yields an empty delta and dispatches nothing.
//
// Deltas carry a port refinement (headerspace.Delta.Ports): when EVERY
// changed rule restricts its ingress port, only packets arriving on the
// union of those ports can behave differently, and an invariant whose
// recorded traversal entered the switch on other ports is revalidated for
// free. A single unrestricted changed rule widens the delta to any-port
// (nil Ports).
//
// Conservative approximations (all widen the delta, never narrow it):
//   - shadowing rules with an in-port restriction are ignored (they only
//     shadow on one port);
//   - a port-set change or a first-ever snapshot widens to the full header
//     space on any port.
//
// Controller-only (data-plane transparent) entries are excluded from both
// sides: they are omitted from the compiled transfer function, so churning
// them — e.g. RVaaS's own interception rules — cannot change any
// evaluation and must not dispatch anything.

// deltaTermCap bounds the union-term count of one switch's accumulated
// delta; past it the delta collapses to the full header space
// (conservative: every invariant in that switch's bucket re-runs).
const deltaTermCap = 48

// shadowSet is the precomputed shadow geometry of a table's unchanged
// rules: the match headers of modeled, port-unrestricted entries, sorted
// by descending priority so a shadow scan can stop early.
type shadowSet struct {
	prios   []int
	matches []headerspace.Header
}

// newShadowSet extracts the shadowing rules from the common entries.
func newShadowSet(common []openflow.FlowEntry) shadowSet {
	var ss shadowSet
	for _, e := range common {
		if e.DataPlaneTransparent() || e.Match.HasInPort() {
			continue
		}
		ss.prios = append(ss.prios, int(e.Priority))
		ss.matches = append(ss.matches, e.Match.ToHeader())
	}
	sort.Sort(&ss)
	return ss
}

func (ss *shadowSet) Len() int { return len(ss.prios) }
func (ss *shadowSet) Swap(i, j int) {
	ss.prios[i], ss.prios[j] = ss.prios[j], ss.prios[i]
	ss.matches[i], ss.matches[j] = ss.matches[j], ss.matches[i]
}
func (ss *shadowSet) Less(i, j int) bool { return ss.prios[i] > ss.prios[j] }

// residual returns the slice of e's match space not shadowed by common
// rules of strictly higher priority. Strictly higher only: among equal
// priorities OpenFlow match order is arrival order, which the diff cannot
// reconstruct, so equal-priority overlap conservatively stays in the
// delta.
//
// The subtraction chain is capped: each SubtractHeader can split a
// wildcard term into up to header-width pieces, so a broad changed rule
// under many exact-match shadowers would otherwise blow up quadratically
// — and this runs on the commit path while snapshotStore.mu is held. Past
// deltaTermCap intermediate terms the chain stops and the UN-shadowED match space
// is returned (wider, never narrower: strictly conservative).
func (ss *shadowSet) residual(e openflow.FlowEntry) headerspace.Space {
	full := headerspace.NewSpace(wire.HeaderWidth, e.Match.ToHeader())
	out := full
	for i := range ss.prios {
		if ss.prios[i] <= int(e.Priority) {
			break // sorted descending: no further shadowers
		}
		out = out.SubtractHeader(ss.matches[i])
		if out.IsEmpty() {
			break
		}
		if out.Size() > deltaTermCap {
			return full
		}
	}
	return out
}

// deltaOf computes the header-space delta of a set of changed entries
// against the table's unchanged (common) entries. The delta's port
// refinement is sound exactly because the transfer-function compiler maps
// Match.HasInPort() onto the rule's InPorts (openflow/hsa.go): a packet
// arriving on another port is handled by the same non-changed rules in
// both tables.
func deltaOf(changed, common []openflow.FlowEntry) headerspace.Delta {
	out := headerspace.Delta{Space: headerspace.EmptySpace(wire.HeaderWidth)}
	if len(changed) == 0 {
		return out
	}
	ss := newShadowSet(common)
	// Ports narrows to the union of the changed rules' in-port restrictions
	// — valid only while EVERY contributing rule carries one. A single
	// unrestricted changed rule collapses the refinement to any-port (nil)
	// for good; so does exceeding the port cap inside MergeDeltaPorts.
	allRestricted := true
	var ports []headerspace.PortID
	spaceCapped := false
	for _, e := range changed {
		if e.DataPlaneTransparent() {
			continue
		}
		if !spaceCapped {
			out.Space = out.Space.Union(ss.residual(e))
			if out.Space.Size() > deltaTermCap {
				// Term-cap collapse widens the SPACE only; the port scan must
				// still cover every remaining changed rule or the refinement
				// would be unsoundly narrow.
				out.Space = headerspace.FullSpace(wire.HeaderWidth)
				spaceCapped = true
			}
		}
		if !allRestricted {
			continue
		}
		if !e.Match.HasInPort() {
			allRestricted = false
		} else if p := []headerspace.PortID{headerspace.PortID(e.Match.InPort)}; ports == nil {
			ports = p
		} else if merged := headerspace.MergeDeltaPorts(ports, p); merged == nil {
			allRestricted = false // port-cap collapse: conservative any-port
		} else {
			ports = merged
		}
	}
	if allRestricted {
		out.Ports = ports
	}
	return out
}

// tableDelta diffs a full table replacement. Entries are bucketed by
// priority and compared positionally within each bucket — exactly the
// order the transfer-function compiler preserves (priority descending,
// stable among equals) — so a pure reorder of equal-priority rules is
// correctly treated as a change, while identical tables yield an empty
// delta.
func tableDelta(oldT, newT []openflow.FlowEntry) headerspace.Delta {
	byPrio := func(t []openflow.FlowEntry) map[uint16][]openflow.FlowEntry {
		m := make(map[uint16][]openflow.FlowEntry)
		for _, e := range t {
			m[e.Priority] = append(m[e.Priority], e)
		}
		return m
	}
	om, nm := byPrio(oldT), byPrio(newT)
	var changed, common []openflow.FlowEntry
	seen := make(map[uint16]bool, len(om))
	diffBucket := func(ob, nb []openflow.FlowEntry) {
		n := len(ob)
		if len(nb) < n {
			n = len(nb)
		}
		for i := 0; i < n; i++ {
			if ob[i].Equal(nb[i]) {
				common = append(common, ob[i])
			} else {
				changed = append(changed, ob[i], nb[i])
			}
		}
		changed = append(changed, ob[n:]...)
		changed = append(changed, nb[n:]...)
	}
	for p, ob := range om {
		seen[p] = true
		diffBucket(ob, nm[p])
	}
	for p, nb := range nm {
		if !seen[p] {
			diffBucket(nil, nb)
		}
	}
	return deltaOf(changed, common)
}

// eventDelta computes the delta of one applied flow-monitor event against
// the table state BEFORE the event was folded in.
func eventDelta(before []openflow.FlowEntry, ev *openflow.FlowMonitorReply) headerspace.Delta {
	switch ev.Kind {
	case openflow.FlowEventAdded:
		// Everything already in the table is unchanged and shadows.
		return deltaOf([]openflow.FlowEntry{ev.Entry}, before)
	case openflow.FlowEventRemoved:
		var removed, kept []openflow.FlowEntry
		for _, e := range before {
			if e.Equal(ev.Entry) {
				removed = append(removed, e)
			} else {
				kept = append(kept, e)
			}
		}
		return deltaOf(removed, kept)
	case openflow.FlowEventModified:
		var replaced, rest []openflow.FlowEntry
		for _, e := range before {
			if e.Priority == ev.Entry.Priority && e.Match.Equal(ev.Entry.Match) {
				replaced = append(replaced, e)
			} else {
				rest = append(rest, e)
			}
		}
		if len(replaced) == 0 {
			// Unmatched modify appends (see applyEvent): behaves as an add.
			return deltaOf([]openflow.FlowEntry{ev.Entry}, before)
		}
		// Old and new versions share priority+match, so the changed set's
		// match union is just the replaced entries' (the new actions only
		// alter behavior inside the same match space).
		return deltaOf(append(replaced, ev.Entry), rest)
	}
	return headerspace.Delta{Space: headerspace.EmptySpace(wire.HeaderWidth)}
}
