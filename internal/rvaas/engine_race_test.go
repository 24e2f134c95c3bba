package rvaas

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/history"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// This file stress-tests the sharded recheck engine under -race:
// concurrent Subscribe/Unsubscribe, snapshot churn, and overlapping
// RecheckNow/RevalidateAll triggers with the parallel worker pool. The
// invariants checked afterwards:
//
//   - the inverted switch → traversal-class index matches every live
//     subscription's recorded footprints exactly (no stale, misplaced or
//     missing entries);
//   - per subscription, the violation log alternates strictly
//     violation/recovery starting with a violation (no duplicated, missing
//     or out-of-order transitions), and the notification sequence counter
//     equals the number of logged transitions.

// raceRoutingTable programs linear all-pairs routing for switch sw of an
// n-switch chain: traffic for host k leaves on port 3 at switch k, port 2
// rightwards below k, port 1 leftwards above k.
func raceRoutingTable(topo *topology.Topology, sw topology.SwitchID, n int) []openflow.FlowEntry {
	var out []openflow.FlowEntry
	for k := 1; k <= n; k++ {
		_, ip := topology.HostAddr(topology.SwitchID(k), 0)
		var port uint32
		switch {
		case topology.SwitchID(k) == sw:
			port = 3
		case topology.SwitchID(k) > sw:
			port = 2
		default:
			port = 1
		}
		out = append(out, openflow.FlowEntry{
			Priority: 100,
			Match: openflow.Match{Fields: []openflow.FieldMatch{
				{Field: wire.FieldIPDst, Value: uint64(ip), Mask: 0xFFFFFFFF},
			}},
			Actions: []openflow.Action{openflow.Output(port)},
			Cookie:  0xCACE_0000 + uint64(k),
		})
	}
	return out
}

// checkEngineConsistency cross-checks the engine's inverted index against
// its live subscriptions' footprints. Called quiescent (no concurrent
// engine activity).
func checkEngineConsistency(t *testing.T, c *Controller) {
	t.Helper()
	if err := c.engine.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestEngineConcurrencyAndIndexConsistency(t *testing.T) {
	const nSwitches = 12
	topo, err := topology.Linear(nSwitches, nil)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Topology:      topo,
		Platform:      platform,
		ManualRecheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The alternation check below reads every transition of the run: a
	// log deeper than the default keeps the oldest from being evicted.
	c.vlog = history.NewViolationLog(16384)
	c.Start()
	defer c.Close()

	// Prime the snapshot with working linear routing on every switch.
	seqs := make([]uint64, nSwitches+1)
	for i := 1; i <= nSwitches; i++ {
		seqs[i]++
		c.snap.replaceState(topology.SwitchID(i), raceRoutingTable(topo, topology.SwitchID(i), nSwitches), nil, nil, seqs[i], false)
	}

	aps := topo.AccessPoints()
	// A standing population that survives the whole test: neighbor
	// reachability pairs, one isolation invariant, one path-length and one
	// waypoint invariant.
	var keep []uint64
	for i := 0; i+1 < len(aps); i++ {
		id, err := c.Subscribe(aps[i].ClientID, wire.QueryReachableDestinations,
			[]wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(aps[i+1].HostIP), Mask: 0xFFFFFFFF}},
			"", aps[i].Endpoint)
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, id)
	}
	if _, err := c.Subscribe(aps[0].ClientID, wire.QueryIsolation,
		[]wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(aps[0].HostIP), Mask: 0xFFFFFFFF}},
		"", aps[0].Endpoint); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe(aps[1].ClientID, wire.QueryPathLength,
		[]wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(aps[len(aps)-1].HostIP), Mask: 0xFFFFFFFF}},
		"64", aps[1].Endpoint); err != nil {
		t.Fatal(err)
	}

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		seqMu   sync.Mutex // guards seqs across churners
		subErrs atomic.Int64
	)

	// Churner: flips a middle switch between full routing and a table with
	// a drop rule for one destination, forcing verdict transitions for the
	// invariants whose footprint crosses it.
	churn := func(victim int, dropDst uint32) {
		defer wg.Done()
		dropping := false
		for !stop.Load() {
			table := raceRoutingTable(topo, topology.SwitchID(victim), nSwitches)
			if !dropping {
				table = append([]openflow.FlowEntry{{
					Priority: 3000,
					Match: openflow.Match{Fields: []openflow.FieldMatch{
						{Field: wire.FieldIPDst, Value: uint64(dropDst), Mask: 0xFFFFFFFF},
					}},
					Cookie: 0xD40D,
				}}, table...)
			}
			dropping = !dropping
			seqMu.Lock()
			seqs[victim]++
			seq := seqs[victim]
			seqMu.Unlock()
			c.snap.replaceState(topology.SwitchID(victim), table, nil, nil, seq, false)
			c.RecheckNow()
		}
	}
	wg.Add(2)
	go churn(4, aps[4].HostIP)
	go churn(9, aps[9].HostIP)

	// Subscriber churn: register and remove short-lived invariants.
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				i := g * 5
				id, err := c.Subscribe(aps[i].ClientID, wire.QueryReachableDestinations,
					[]wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(aps[i+1].HostIP), Mask: 0xFFFFFFFF}},
					"", aps[i].Endpoint)
				if err != nil {
					subErrs.Add(1)
					continue
				}
				if !c.Unsubscribe(aps[i].ClientID, id) {
					subErrs.Add(1)
				}
			}
		}(g)
	}

	// Recheck triggers racing the churners' own passes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for !stop.Load() {
			n++
			if n%7 == 0 {
				c.RevalidateAll()
			} else {
				c.RecheckNow()
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	c.RecheckNow()

	if n := subErrs.Load(); n > 0 {
		t.Fatalf("%d subscribe/unsubscribe operations failed", n)
	}
	checkEngineConsistency(t, c)

	// Per-subscription transition discipline: strictly alternating
	// violation/recovery starting with a violation, and the notification
	// sequence counter equal to the number of logged transitions.
	for _, id := range keep {
		recs := c.vlog.PerSub(id)
		for i, r := range recs {
			wantEvent := history.EventViolation
			if i%2 == 1 {
				wantEvent = history.EventRecovery
			}
			if r.Event != wantEvent {
				t.Fatalf("sub %d transition %d = %v, want %v (records: %s)", id, i, r.Event, wantEvent, fmtRecords(recs))
			}
		}
		st, ok := c.engine.View(id)
		if !ok {
			t.Fatalf("standing subscription %d disappeared", id)
		}
		if !st.Evaluated {
			t.Fatalf("standing subscription %d never evaluated", id)
		}
		if st.Seq != uint64(len(recs)) {
			t.Fatalf("sub %d seq %d != %d logged transitions", id, st.Seq, len(recs))
		}
		wantViolated := len(recs)%2 == 1
		if st.Violated != wantViolated {
			t.Fatalf("sub %d violated=%v inconsistent with %d transitions", id, st.Violated, len(recs))
		}
	}

	// The engine's accounting must balance: every pass either evaluated or
	// revalidated each active subscription it inspected.
	st := c.SubscriptionStats()
	if st.Rechecks == 0 || st.Evaluated == 0 {
		t.Fatalf("stress ran no rechecks: %+v", st)
	}
}

func fmtRecords(recs []history.Violation) string {
	out := ""
	for _, r := range recs {
		out += fmt.Sprintf("%v ", r.Event)
	}
	return out
}
