package rvaas

import (
	"sort"
	"time"

	"repro/internal/headerspace"
	"repro/internal/history"
	"repro/internal/openflow"
	"repro/internal/topology"
)

// Attack traceback (paper §IV-C: "a slightly more complex service may also
// maintain some history of the recent past, allowing RVaaS for example to
// traceback the ingress port of an attack"). Given a time window, RVaaS
// reconstructs which rules appeared or vanished and which edge ports those
// rules opened paths from.

// ConfigChange is one rule-level change observed in the history window.
type ConfigChange struct {
	Switch  topology.SwitchID
	Entry   openflow.FlowEntry
	Removed bool // false = added
	// ApproxAt is the timestamp of the first snapshot showing the change.
	ApproxAt time.Time
}

// ConfigDiff reconstructs the rule-level changes between the snapshots
// bracketing [from, to].
func (c *Controller) ConfigDiff(from, to time.Time) []ConfigChange {
	records := c.hist.Range(from, to)
	if len(records) < 2 {
		return nil
	}
	sort.Slice(records, func(i, j int) bool { return records[i].At.Before(records[j].At) })
	var out []ConfigChange
	for i := 1; i < len(records); i++ {
		d := history.DiffRecords(records[i-1], records[i])
		for sw, entries := range d.Added {
			for _, e := range entries {
				out = append(out, ConfigChange{Switch: sw, Entry: e, ApproxAt: records[i].At})
			}
		}
		for sw, entries := range d.Removed {
			for _, e := range entries {
				out = append(out, ConfigChange{Switch: sw, Entry: e, Removed: true, ApproxAt: records[i].At})
			}
		}
	}
	return out
}

// TracebackReport names the edge ports from which the changed rules opened
// new paths toward the victim.
type TracebackReport struct {
	// Changes are the raw rule deltas in the window.
	Changes []ConfigChange
	// IngressPorts are edge ports that gained reachability to the victim's
	// access point through added rules.
	IngressPorts []topology.Endpoint
}

// TracebackIngress answers "where could the attack have come from?": it
// replays the snapshot at the end of the window and reports every edge port
// that can reach the victim through at least one rule added inside the
// window.
func (c *Controller) TracebackIngress(victim topology.AccessPoint, from, to time.Time) TracebackReport {
	rep := TracebackReport{Changes: c.ConfigDiff(from, to)}
	if len(rep.Changes) == 0 {
		return rep
	}
	// Collect fingerprints of added rules per switch.
	added := make(map[topology.SwitchID]map[string]struct{})
	for _, ch := range rep.Changes {
		if ch.Removed {
			continue
		}
		m := added[ch.Switch]
		if m == nil {
			m = make(map[string]struct{})
			added[ch.Switch] = m
		}
		m[history.EntryKey(ch.Switch, ch.Entry)] = struct{}{}
	}
	if len(added) == 0 {
		return rep
	}
	// Rebuild the network from the snapshot at the window end and find the
	// edge ports whose path to the victim crosses an added rule.
	rec, ok := c.hist.At(to)
	if !ok {
		return rep
	}
	net := newSnapshotStore()
	for sw, entries := range rec.Tables {
		net.replaceTable(sw, entries, nil, 0)
	}
	hsNet, _ := net.buildNetwork(c.topo)
	req := requesterInfo{sw: victim.Endpoint.Switch, port: victim.Endpoint.Port}
	for _, swID := range c.topo.Switches() {
		for p := topology.PortNo(1); p <= c.topo.PortCount(swID); p++ {
			ep := topology.Endpoint{Switch: swID, Port: p}
			if c.topo.IsInternal(ep) || ep == victim.Endpoint {
				continue
			}
			results := hsNet.Reach(
				headerspace.NodeID(ep.Switch), headerspace.PortID(ep.Port),
				scopeSpace(nil), headerspace.ReachOptions{})
			for _, r := range results {
				if r.Looped {
					continue
				}
				if topology.SwitchID(r.EgressNode) != req.sw || topology.PortNo(r.EgressPort) != req.port {
					continue
				}
				if pathUsesAddedRule(r, added) {
					rep.IngressPorts = append(rep.IngressPorts, ep)
					goto nextPort
				}
			}
		nextPort:
		}
	}
	sort.Slice(rep.IngressPorts, func(i, j int) bool {
		a, b := rep.IngressPorts[i], rep.IngressPorts[j]
		if a.Switch != b.Switch {
			return a.Switch < b.Switch
		}
		return a.Port < b.Port
	})
	return rep
}

// pathUsesAddedRule reports whether any hop of the result's path belongs to
// a switch with added rules. (Hop-level rule attribution would need the
// emission's rule annotation; switch-level attribution is sufficient to
// rank ingress candidates.)
func pathUsesAddedRule(r headerspace.ReachResult, added map[topology.SwitchID]map[string]struct{}) bool {
	for _, h := range r.Path {
		if _, ok := added[topology.SwitchID(h.Node)]; ok {
			return true
		}
	}
	return false
}
