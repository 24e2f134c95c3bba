package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Everything the system under test sees is made here from the seed alone:
// pair order, neutral-rule values, L4 constraints and the query mix. The
// program receives only these inputs — nothing under internal/ or cmd/
// learns which workload is running.

// dropRule is a high-priority no-action rule severing one destination.
func dropRule(dstIP uint32, id int) openflow.FlowEntry {
	return openflow.FlowEntry{
		Priority: 3000,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(dstIP), Mask: 0xFFFFFFFF},
		}},
		Cookie: 0xBE_0000_0000 | uint64(id),
	}
}

// neutralRule is a shadow-free low-priority rule for a destination no
// invariant's scope contains (203.0.114.0/24 is outside the 10/8 host
// plan): the whole dirty bucket goes through the rule-delta overlap
// filter and nothing may flip.
func neutralRule(value uint32, id int) openflow.FlowEntry {
	return openflow.FlowEntry{
		Priority: 2, // below the provider's routing rules
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(0xCB007200 + value%251), Mask: 0xFFFFFFFF},
		}},
		Actions: []openflow.Action{openflow.Output(1)},
		Cookie:  0xBF_0000_0000 | uint64(id),
	}
}

// flipPlan walks the probes in a seeded order, one group at a time: it
// installs the drop rule of each probe of the group on the given switch,
// removes them again in the same order, and moves on to the next group,
// reshuffling after the last. A rule therefore stays installed for one
// group's worth of events; the workloads size the group so that this is
// at least minInstalled, because an install and its remove that land
// inside one re-verification pass are coalesced by design and produce no
// notification. Small groups also keep the number of rules installed at
// any time, and with it the cost of an event, steady over a window.
type flipPlan struct {
	rng      *rand.Rand
	probes   []*probe
	switchOf func(*probe) topology.SwitchID
	group    int
	order    []int
	// order[start:end] is the current group, pos the next probe in it.
	start, end, pos int
	removing        bool
	nextID          int
	ids             []int // rule id installed per probe, by probe index
}

// minInstalled is the shortest time a flipped rule must stay installed.
const minInstalled = 500 * time.Millisecond

func newFlipPlan(rng *rand.Rand, probes []*probe, group int, switchOf func(*probe) topology.SwitchID) *flipPlan {
	return &flipPlan{rng: rng, probes: probes, group: group, switchOf: switchOf, ids: make([]int, len(probes))}
}

func (fp *flipPlan) next() *event {
	if fp.pos == fp.end {
		// The walk over the group is over: remove what it installed, or
		// start installing the next group.
		if fp.removing || fp.order == nil {
			if fp.end == len(fp.order) {
				fp.order, fp.end = fp.rng.Perm(len(fp.probes)), 0
			}
			fp.start, fp.end = fp.end, min(fp.end+fp.group, len(fp.order))
			fp.removing = false
		} else {
			fp.removing = true
		}
		fp.pos = fp.start
	}
	i := fp.order[fp.pos]
	fp.pos++
	p := fp.probes[i]
	if !fp.removing {
		fp.nextID++
		fp.ids[i] = fp.nextID
	}
	return &event{
		sw:      fp.switchOf(p),
		entry:   dropRule(p.dst.HostIP, fp.ids[i]),
		install: !fp.removing,
		probe:   p,
	}
}

// drain lists remove events for every rule the plan has installed and not
// yet removed: it ends an event workload all green.
func (fp *flipPlan) drain() []*event {
	installed := fp.order[fp.start:fp.pos] // installs of the current walk
	if fp.removing {
		installed = fp.order[fp.pos:fp.end] // rules the remove walk has not reached
	}
	var evs []*event
	for _, i := range installed {
		p := fp.probes[i]
		evs = append(evs, &event{sw: fp.switchOf(p), entry: dropRule(p.dst.HostIP, fp.ids[i]), probe: p})
	}
	return evs
}

// neutralPlan alternates installing a seeded neutral rule on one switch
// and removing it again.
type neutralPlan struct {
	rng     *rand.Rand
	sw      topology.SwitchID
	nextID  int
	pending *openflow.FlowEntry
}

func (np *neutralPlan) next() *event {
	if np.pending != nil {
		ev := &event{sw: np.sw, entry: *np.pending}
		np.pending = nil
		return ev
	}
	np.nextID++
	r := neutralRule(np.rng.Uint32(), np.nextID)
	np.pending = &r
	return &event{sw: np.sw, entry: r, install: true}
}

func (np *neutralPlan) drain() []*event {
	if np.pending == nil {
		return nil
	}
	return []*event{np.next()}
}

// schedule lays n events from next out on an open-loop timetable at rate
// events per second, the first one gap after the window opens.
func schedule(n int, rate float64, next func() *event) []*event {
	gap := time.Duration(float64(time.Second) / rate)
	evs := make([]*event, n)
	for i := range evs {
		evs[i] = next()
		evs[i].id = i
		evs[i].due = time.Duration(i+1) * gap
	}
	return evs
}

// querySpec is one query of the closed-loop mix with its expected answer.
type querySpec struct {
	kind        wire.QueryKind
	constraints []wire.FieldConstraint
	param       string
	// check validates the verified response's content.
	check func(*wire.QueryResponse) string
}

// queryMix is the closed-loop query mix, in twentieths. The
// reaching-sources sweep (every edge port, then in-band authentication of
// every source) costs ~20x the others: at 5% it sits beyond the p90, which
// therefore reads the common queries and not the boundary between the two.
var queryMix = map[wire.QueryKind]int{
	wire.QueryReachableDestinations: 12,
	wire.QueryPathLength:            4,
	wire.QueryWaypointAvoidance:     3,
	wire.QueryReachingSources:       1,
}

func queryMixTotal() int {
	n := 0
	for _, share := range queryMix {
		n += share
	}
	return n
}

// queryDeck builds count queries for the client at src in the mix of
// queryMix — exact over every round of the mix and shuffled within it —
// over destinations rotating through the other access points.
func queryDeck(rng *rand.Rand, aps []topology.AccessPoint, edgePorts, src, count int) []querySpec {
	var kinds []wire.QueryKind
	for kind, n := range queryMix {
		for i := 0; i < n; i++ {
			kinds = append(kinds, kind)
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	dst := rng.Intn(len(aps))
	deck := make([]querySpec, 0, count)
	for len(deck) < count {
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			dst = (dst + 1) % len(aps)
			if dst == src {
				dst = (dst + 1) % len(aps)
			}
			deck = append(deck, makeQuery(k, aps, edgePorts, src, dst))
		}
	}
	return deck[:count]
}

func makeQuery(kind wire.QueryKind, aps []topology.AccessPoint, edgePorts, src, dst int) querySpec {
	target := aps[dst]
	q := querySpec{kind: kind, constraints: []wire.FieldConstraint{dstConstraint(target.HostIP)}}
	switch kind {
	case wire.QueryReachableDestinations:
		q.check = func(r *wire.QueryResponse) string {
			for _, ep := range r.Endpoints {
				if ep.ClientID == target.ClientID && ep.SwitchID == uint32(target.Endpoint.Switch) {
					if !ep.Authenticated {
						return "destination did not authenticate in-band"
					}
					return ""
				}
			}
			return "expected destination missing from the answer"
		}
	case wire.QueryPathLength:
		q.param = "1000"
		// On a chain the path visits every switch from src to dst.
		hops := dst - src
		if hops < 0 {
			hops = -hops
		}
		want := strconv.Itoa(hops + 1)
		q.check = func(r *wire.QueryResponse) string {
			if r.Detail != want {
				return "path length " + r.Detail + ", want " + want
			}
			return ""
		}
	case wire.QueryWaypointAvoidance:
		q.param = "no-such-region"
		q.check = func(*wire.QueryResponse) string { return "" }
	case wire.QueryReachingSources:
		// Who can reach me: under all-pairs routing every other edge port,
		// and every client behind one must authenticate in-band.
		me := aps[src]
		q.constraints = []wire.FieldConstraint{dstConstraint(me.HostIP)}
		q.check = func(r *wire.QueryResponse) string {
			if len(r.Endpoints) != edgePorts-1 {
				return fmt.Sprintf("reaching sources: %d endpoints, want %d", len(r.Endpoints), edgePorts-1)
			}
			if int(r.AuthRequested) != len(aps)-1 || r.AuthReplied != r.AuthRequested {
				return fmt.Sprintf("reaching sources: %d of %d authenticated, want %d", r.AuthReplied, r.AuthRequested, len(aps)-1)
			}
			return ""
		}
	}
	return q
}

// churnItems builds one batch of n neighbour-reachability invariants whose
// seeded L4 constraint keeps them distinct without changing their
// footprint.
func churnItems(rng *rand.Rand, dst topology.AccessPoint, n int) []wire.BatchItem {
	items := make([]wire.BatchItem, n)
	for i := range items {
		items[i] = wire.BatchItem{
			Kind: wire.QueryReachableDestinations,
			Constraints: []wire.FieldConstraint{
				dstConstraint(dst.HostIP),
				{Field: wire.FieldL4Dst, Value: uint64(1024 + rng.Intn(60000)), Mask: 0xFFFF},
			},
		}
	}
	return items
}
