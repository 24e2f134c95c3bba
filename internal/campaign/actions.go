package campaign

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/controlplane"
	"repro/internal/deploy"
	"repro/internal/openflow"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/wire"
)

// CookieCampaign marks rules the campaign grammar installs (disjoint from
// CookieRouting, CookieAttack and CookieRVaaS so forensics stay readable).
const CookieCampaign uint64 = 0xCA3A_0000

// campaignPriorities: churn sits below routing, flap/lie drops outrank it.
const (
	churnPriority  uint16 = 5
	shadowHiPrio   uint16 = 700
	shadowLoPrio   uint16 = 300
	breakPriority  uint16 = 950
	campaignClient uint64 = 0xCA
)

// executor applies concrete actions to the lab. All bookkeeping (attached
// sessions, active attacks, churn sets, dynamic subscriptions) is a pure
// function of the executed trace prefix, which keeps shrunk sub-traces
// deterministic.
type executor struct {
	d        *deploy.Deployment
	topo     *topology.Topology
	switches []topology.SwitchID
	aps      []topology.AccessPoint

	shadow *rvaas.Controller // oracle controller for mirrored subscriber churn

	detached map[topology.SwitchID]bool
	attacks  map[string]controlplane.Attack
	churn    []Action // installed churn sets, oldest first
	dynSubs  []dynSub

	// lastDetach timestamps the most recent session loss of the current
	// step (zeroed by the engine after the stale-green check).
	lastDetach time.Time
}

type dynSub struct {
	clientID uint64
	id       uint64
}

func newExecutor(d *deploy.Deployment, topo *topology.Topology) *executor {
	return &executor{
		d:        d,
		topo:     topo,
		switches: topo.Switches(),
		aps:      topo.AccessPoints(),
		detached: make(map[topology.SwitchID]bool),
		attacks:  make(map[string]controlplane.Attack),
	}
}

func ipConstraint(ip uint32) []wire.FieldConstraint {
	return []wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(ip), Mask: 0xFFFFFFFF}}
}

func ipMatch(ip uint32) openflow.Match {
	return openflow.Match{Fields: []openflow.FieldMatch{
		{Field: wire.FieldIPDst, Value: uint64(ip), Mask: 0xFFFFFFFF},
	}}
}

// registerBase registers the up-front standing invariants on the primary
// and the oracle in identical order, cycling the four supported kinds so
// the differ covers waypoint and path-length, not just reach/isolation.
func (x *executor) registerBase(shadow *rvaas.Controller, n int) error {
	x.shadow = shadow
	for i := 0; i < n; i++ {
		kind, constraints, param, at := x.deriveSub(uint64(i))
		if err := x.subscribeBoth(kind, constraints, param, at); err != nil {
			return err
		}
	}
	return nil
}

// deriveSub deterministically derives one subscription from a key.
func (x *executor) deriveSub(key uint64) (wire.QueryKind, []wire.FieldConstraint, string, topology.Endpoint) {
	n := uint64(len(x.aps))
	anchor := x.aps[key%n]
	dst := x.aps[(key+1+(key>>4))%n]
	if dst.HostIP == anchor.HostIP {
		dst = x.aps[(key%n+1)%n]
	}
	var (
		kind  wire.QueryKind
		param string
	)
	switch key % 4 {
	case 0:
		kind = wire.QueryReachableDestinations
	case 1:
		kind = wire.QueryIsolation
	case 2:
		kind = wire.QueryPathLength
		param = strconv.Itoa(3 + int(key>>3)%6)
	case 3:
		kind = wire.QueryWaypointAvoidance
		via := x.switches[(key>>3)%uint64(len(x.switches))]
		param = string(x.topo.RegionOf(via))
	}
	return kind, ipConstraint(dst.HostIP), param, anchor.Endpoint
}

// subscribeBoth registers the same invariant on primary and oracle and
// verifies the sequential id allocators stayed aligned.
func (x *executor) subscribeBoth(kind wire.QueryKind, constraints []wire.FieldConstraint, param string, at topology.Endpoint) error {
	pid, err := x.d.RVaaS.Subscribe(campaignClient, kind, constraints, param, at)
	if err != nil {
		return fmt.Errorf("campaign: primary subscribe %s: %w", kind, err)
	}
	sid, err := x.shadow.Subscribe(campaignClient, kind, constraints, param, at)
	if err != nil {
		return fmt.Errorf("campaign: oracle subscribe %s: %w", kind, err)
	}
	if pid != sid {
		return fmt.Errorf("campaign: subscription id skew: primary %d vs oracle %d", pid, sid)
	}
	x.dynSubs = append(x.dynSubs, dynSub{clientID: campaignClient, id: pid})
	return nil
}

// churnEntries derives a churn set: benign low-priority rules for unused
// 192.168/16 prefixes (the access-point plane lives in 10/8, so verdicts
// are untouched while tables, deltas and dispatch all churn).
func churnEntries(key uint64, count int) []openflow.FlowEntry {
	out := make([]openflow.FlowEntry, 0, count)
	for i := 0; i < count; i++ {
		ip := 0xC0A80000 | uint32((key+uint64(i)*7919)&0xFFFF)
		out = append(out, openflow.FlowEntry{
			Priority: churnPriority,
			Match:    ipMatch(ip),
			Actions:  []openflow.Action{openflow.Output(1)},
			Cookie:   CookieCampaign | uint64(i&0xFF),
		})
	}
	return out
}

// breakRule is a drop rule severing reachability to one access point at
// its own access switch — the canonical violation provoker.
func breakRule(ap topology.AccessPoint) (topology.SwitchID, openflow.FlowEntry) {
	return ap.Endpoint.Switch, openflow.FlowEntry{
		Priority: breakPriority,
		Match:    ipMatch(ap.HostIP),
		Cookie:   CookieCampaign | 0xF00,
	}
}

// buildAttack derives a concrete control-plane compromise from (name, key).
func (x *executor) buildAttack(name string, key uint64) controlplane.Attack {
	n := uint64(len(x.aps))
	victim := x.aps[key%n]
	other := x.aps[(key+1+(key>>4))%n]
	if other.HostIP == victim.HostIP {
		other = x.aps[(key%n+1)%n]
	}
	m := uint64(len(x.switches))
	via := x.switches[(key>>8)%m]
	if via == victim.Endpoint.Switch {
		via = x.switches[((key>>8)+1)%m]
	}
	switch name {
	case "traffic-diversion":
		return &controlplane.TrafficDiversion{VictimIP: victim.HostIP, Detour: via}
	case "exfiltration":
		return &controlplane.Exfiltration{VictimIP: victim.HostIP, Tap: other.Endpoint}
	case "geo-violation":
		return &controlplane.GeoViolation{SrcIP: other.HostIP, DstIP: victim.HostIP, Via: via}
	case "neutrality-violation":
		return &controlplane.NeutralityViolation{VictimIP: victim.HostIP, L4Dst: 443}
	case "meter-throttle":
		return &controlplane.MeterThrottle{VictimIP: victim.HostIP, L4Dst: 443, RateKbps: 512}
	}
	return nil
}

// pollIfHidden runs an active sweep after attacks that mutate state the
// passive channel never reports: meter mods bump the switch's table
// sequence without emitting a flow-monitor event, so only a poll can bring
// the snapshot (and the settle barrier) back in sync. Deterministic by
// construction — the sweep happens iff the action name demands it.
func (x *executor) pollIfHidden(name string) error {
	if name != "meter-throttle" {
		return nil
	}
	return x.d.RVaaS.PollAll(5 * time.Second)
}

// apply executes one action. Actions that reference state the trace prefix
// never created (revert of an inactive attack, reattach of an attached
// switch, unsub with no dynamic subscriptions) are deterministic no-ops,
// so any shrunk sub-trace stays executable.
func (x *executor) apply(a Action) error {
	sw := topology.SwitchID(a.Switch)
	switch a.Op {
	case OpChurn:
		for _, e := range churnEntries(a.Key, a.Count) {
			x.d.Provider.InstallEntry(sw, e)
		}
		x.churn = append(x.churn, a)
	case OpUnchurn:
		// Remove the oldest still-installed churn set (prefix-deterministic).
		if len(x.churn) == 0 {
			return nil
		}
		c := x.churn[0]
		x.churn = x.churn[1:]
		for _, e := range churnEntries(c.Key, c.Count) {
			x.d.Provider.RemoveEntry(topology.SwitchID(c.Switch), e)
		}
	case OpFlap:
		ap := x.aps[a.Key%uint64(len(x.aps))]
		e := openflow.FlowEntry{Priority: breakPriority, Match: ipMatch(ap.HostIP), Cookie: CookieCampaign | 0xA}
		x.d.Provider.InstallEntry(sw, e)
		x.d.Provider.RemoveEntry(sw, e)
	case OpShadow:
		ip := 0xC0A90000 | uint32(a.Key&0xFFFF)
		hi := openflow.FlowEntry{Priority: shadowHiPrio, Match: ipMatch(ip),
			Actions: []openflow.Action{openflow.Output(1)}, Cookie: CookieCampaign | 0xB}
		lo := openflow.FlowEntry{Priority: shadowLoPrio, Match: ipMatch(ip), Cookie: CookieCampaign | 0xC}
		x.d.Provider.InstallEntry(sw, hi)
		x.d.Provider.InstallEntry(sw, lo)
	case OpRestart:
		if !x.detached[sw] {
			x.d.RVaaS.Detach(sw)
			x.lastDetach = time.Now()
		}
		if err := x.d.ReattachSwitch(sw); err != nil {
			return err
		}
		x.detached[sw] = false
	case OpDetach:
		if x.detached[sw] {
			return nil
		}
		x.d.RVaaS.Detach(sw)
		x.detached[sw] = true
		x.lastDetach = time.Now()
	case OpReattach:
		if !x.detached[sw] {
			return nil
		}
		if err := x.d.ReattachSwitch(sw); err != nil {
			return err
		}
		x.detached[sw] = false
	case OpAttack:
		if _, active := x.attacks[a.Name]; active {
			return nil
		}
		atk := x.buildAttack(a.Name, a.Key)
		if atk == nil {
			return fmt.Errorf("unknown attack %q", a.Name)
		}
		// Launch failures (no detour path on tiny topologies) revert any
		// partial placement and no-op: the grammar is topology-agnostic.
		if err := atk.Launch(x.d.Provider); err != nil {
			_ = atk.Revert(x.d.Provider)
			return nil
		}
		x.attacks[a.Name] = atk
		return x.pollIfHidden(a.Name)
	case OpRevert:
		atk, active := x.attacks[a.Name]
		if !active {
			return nil
		}
		delete(x.attacks, a.Name)
		if err := atk.Revert(x.d.Provider); err != nil {
			return err
		}
		return x.pollIfHidden(a.Name)
	case OpSuppress:
		if x.detached[sw] && a.On {
			// A detached switch's hidden mutations would never surface
			// (nothing polls it); keep the lie on live sessions.
			return nil
		}
		x.d.Fabric.Switch(sw).SetEventSuppression(a.On)
	case OpPoll:
		// Sweep timeout is generous: a poll that misses the window would
		// desynchronize primary and oracle nondeterministically.
		return x.d.RVaaS.PollAll(5 * time.Second)
	case OpSub:
		kind, constraints, param, at := x.deriveSub(a.Key)
		return x.subscribeBoth(kind, constraints, param, at)
	case OpUnsub:
		if len(x.dynSubs) == 0 {
			return nil
		}
		i := int(a.Key % uint64(len(x.dynSubs)))
		s := x.dynSubs[i]
		x.dynSubs = append(x.dynSubs[:i], x.dynSubs[i+1:]...)
		x.d.RVaaS.Unsubscribe(s.clientID, s.id)
		x.shadow.Unsubscribe(s.clientID, s.id)
	case OpLie:
		// Provoke transitions (the lie needs something to lie about): break
		// reachability to one access point. The engine has already armed
		// the commit tap; the primary will log the transitions inverted.
		ap := x.aps[a.Key%uint64(len(x.aps))]
		bsw, e := breakRule(ap)
		x.d.Provider.InstallEntry(bsw, e)
	default:
		return fmt.Errorf("unknown action op %q", a.Op)
	}
	return nil
}
