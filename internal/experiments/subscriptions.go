package experiments

import (
	"fmt"
	"time"

	"repro/internal/deploy"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Experiment E12: standing-invariant re-check latency — incremental
// (dirty-set-aware) versus naive re-query. A population of long-lived
// tenant invariants is registered once; then a single switch's
// configuration churns, as in a targeted reconfiguration attack, and we
// measure how long it takes the controller to re-establish every
// invariant's verdict (a) incrementally, re-running only invariants whose
// recorded footprint crosses the dirty switch, and (b) naively,
// re-evaluating all of them — the cost clients would collectively pay by
// re-issuing their queries after every change.

// SubscriptionRow is one row of the E12 table.
type SubscriptionRow struct {
	Topology string
	Switches int
	Subs     int
	// EvalsPerCheck is how many invariants one incremental pass actually
	// re-evaluated (the rest revalidated for free).
	EvalsPerCheck float64
	// IncrementalMean is the mean latency of one incremental re-check pass
	// after a single-switch change.
	IncrementalMean time.Duration
	// NaiveMean is the mean latency of re-evaluating every invariant.
	NaiveMean time.Duration
	// Speedup is NaiveMean / IncrementalMean.
	Speedup float64
}

// Check holds E12's claim: after a single-switch change, re-establishing
// every verdict incrementally is at least 5× cheaper than re-evaluating
// every invariant.
func (r SubscriptionRow) Check() error {
	c := claims{row: r.Topology}
	c.require(r.Speedup >= 5, "incremental ≥ 5× naive: %.1f×", r.Speedup)
	return c.err()
}

// subscriptionChurnEntry is a rule matching traffic no invariant cares
// about: installing/removing it dirties the switch (forcing a transfer
// function recompile and a re-check) without flipping any verdict.
func subscriptionChurnEntry(i int) openflow.FlowEntry {
	return openflow.FlowEntry{
		Priority: uint16(3000 + i%64),
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(0xCB007100 + i%251), Mask: 0xFFFFFFFF},
		}},
		Actions: []openflow.Action{openflow.Output(1)},
		Cookie:  uint64(0xE1200000 + i),
	}
}

// SubscriptionRecheck measures E12 on one topology. It registers a mix of
// standing invariants (reachability, waypoint avoidance, path length — one
// per adjacent access-point pair, the long-lived multi-tenant population),
// then repeatedly dirties one switch and times incremental re-check versus
// naive full re-evaluation.
func SubscriptionRecheck(nt NamedTopology, iters int) (SubscriptionRow, error) {
	if iters < 1 {
		iters = 1
	}
	row := SubscriptionRow{Topology: nt.Name}
	topo, err := nt.Build()
	if err != nil {
		return row, err
	}
	d, err := deploy.New(topo, deploy.Options{SkipAgents: true, ManualRecheck: true})
	if err != nil {
		return row, err
	}
	defer d.Close()
	row.Switches = len(topo.Switches())

	aps := topo.AccessPoints()
	if len(aps) < 2 {
		return row, fmt.Errorf("experiments: %s has %d access points, need >= 2", nt.Name, len(aps))
	}
	// Three standing invariants per adjacent tenant pair (reachability,
	// waypoint avoidance, path length on the same scope): each invariant's
	// footprint is the short path segment between the two access points.
	kinds := []struct {
		kind  wire.QueryKind
		param string
	}{
		{wire.QueryReachableDestinations, ""},
		{wire.QueryWaypointAvoidance, "no-such-region"},
		{wire.QueryPathLength, "1000"},
	}
	for i := 0; i+1 < len(aps); i++ {
		dst := aps[i+1]
		for _, k := range kinds {
			if _, err := d.RVaaS.Subscribe(aps[i].ClientID, k.kind,
				[]wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF}},
				k.param, aps[i].Endpoint); err != nil {
				return row, err
			}
			row.Subs++
		}
	}

	// The churned switch: an end of the topology, so most footprints miss
	// it — the steady-state case where a targeted attack touches one box.
	sws := topo.Switches()
	victim := sws[len(sws)-1]
	settle := func(i int) error {
		want := d.RVaaS.SnapshotID() + 2
		e := subscriptionChurnEntry(i)
		d.Fabric.Switch(victim).InstallDirect(e)
		d.Fabric.Switch(victim).RemoveDirect(e)
		// Absorb the two passive events deterministically before timing.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if d.RVaaS.SnapshotID() >= want {
				return nil
			}
			time.Sleep(50 * time.Microsecond)
		}
		return fmt.Errorf("experiments: churn events not absorbed on %s", nt.Name)
	}

	// Warm up: populate footprints and the compile cache baseline.
	if err := settle(0); err != nil {
		return row, err
	}
	d.RVaaS.RecheckNow()

	before := d.RVaaS.SubscriptionStats()
	var incTotal time.Duration
	for i := 1; i <= iters; i++ {
		if err := settle(i); err != nil {
			return row, err
		}
		start := time.Now()
		d.RVaaS.RecheckNow()
		incTotal += time.Since(start)
	}
	after := d.RVaaS.SubscriptionStats()
	row.IncrementalMean = incTotal / time.Duration(iters)
	if checks := after.Rechecks - before.Rechecks; checks > 0 {
		row.EvalsPerCheck = float64(after.Evaluated-before.Evaluated) / float64(checks)
	}

	var naiveTotal time.Duration
	for i := 1; i <= iters; i++ {
		start := time.Now()
		d.RVaaS.RevalidateAll()
		naiveTotal += time.Since(start)
	}
	row.NaiveMean = naiveTotal / time.Duration(iters)
	if row.IncrementalMean > 0 {
		row.Speedup = float64(row.NaiveMean) / float64(row.IncrementalMean)
	}
	return row, nil
}

// SubscriptionSweep runs E12 over the standard linear ladder. On error it
// returns the rows completed before the failing one.
func SubscriptionSweep(iters int) ([]SubscriptionRow, error) {
	tops := []NamedTopology{
		{Name: "linear-10", Build: func() (*topology.Topology, error) { return topology.Linear(10, nil) }},
		{Name: "linear-20", Build: func() (*topology.Topology, error) { return topology.Linear(20, nil) }},
		{Name: "linear-40", Build: func() (*topology.Topology, error) { return topology.Linear(40, nil) }},
	}
	rows := make([]SubscriptionRow, 0, len(tops))
	for _, nt := range tops {
		row, err := SubscriptionRecheck(nt, iters)
		if err != nil {
			return rows, fmt.Errorf("e12 %s: %w", nt.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
