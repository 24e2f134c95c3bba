package experiments

import (
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/history"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// flapDrop is a high-priority no-action (drop) rule severing reachability
// for one destination.
func flapDrop(dstIP uint32) openflow.FlowEntry {
	return openflow.FlowEntry{
		Priority: 3000,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(dstIP), Mask: 0xFFFFFFFF},
		}},
		Cookie: 0xF1A9_0001,
	}
}

// pollStorm hammers the controller with parallel active polls and manual
// rechecks — the adversarial interleaving that must NOT duplicate verdict
// transitions.
func pollStorm(t *testing.T, d *deploy.Deployment, rounds int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := d.RVaaS.PollAll(2 * time.Second); err != nil {
					t.Error(err)
					return
				}
				d.RVaaS.RecheckNow()
			}
		}()
	}
	wg.Wait()
}

func waitForRecords(t *testing.T, d *deploy.Deployment, subID uint64, want int) []history.Violation {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		recs := d.RVaaS.ViolationLog().PerSub(subID)
		if len(recs) >= want {
			return recs
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d violation-log records of sub %d (have %+v)",
		want, subID, d.RVaaS.ViolationLog().PerSub(subID))
	return nil
}

// TestSubscriptionFlapStorm is the flap-storm scenario: a standing
// reachability invariant is violated and then restored while the
// controller is bombarded with parallel active polls and concurrent manual
// rechecks. The serialized re-verification pass must record exactly ONE
// violation and ONE recovery — duplicate notifications would train clients
// to ignore alarms.
func TestSubscriptionFlapStorm(t *testing.T) {
	topo, err := topology.Linear(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{SkipAgents: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	aps := topo.AccessPoints()
	dst := aps[2]
	subID, err := d.RVaaS.Subscribe(aps[0].ClientID, wire.QueryReachableDestinations,
		[]wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF}},
		"", aps[0].Endpoint)
	if err != nil {
		t.Fatal(err)
	}
	if recs := d.RVaaS.ViolationLog().PerSub(subID); len(recs) != 0 {
		t.Fatalf("invariant violated before the attack: %+v", recs)
	}

	// Violate: short-term reconfiguration on the middle switch, caught by
	// the passive event stream between any two client polls.
	mid := topo.Switches()[1]
	drop := flapDrop(dst.HostIP)
	d.Fabric.Switch(mid).InstallDirect(drop)
	pollStorm(t, d, 8)
	recs := waitForRecords(t, d, subID, 1)
	if recs[0].Event != history.EventViolation {
		t.Fatalf("first record = %+v, want violation", recs[0])
	}

	// Restore and storm again.
	d.Fabric.Switch(mid).RemoveDirect(drop)
	pollStorm(t, d, 8)
	recs = waitForRecords(t, d, subID, 2)

	if len(recs) != 2 {
		t.Fatalf("records = %+v, want exactly [violation recovery]", recs)
	}
	if recs[0].Event != history.EventViolation || recs[1].Event != history.EventRecovery {
		t.Fatalf("record order = %+v", recs)
	}
	st := d.RVaaS.SubscriptionStats()
	// The background pass counts its pushes when it flushes them, after it
	// logged the transition: let it catch up with the two log records.
	for deadline := time.Now().Add(5 * time.Second); st.NotificationsSent < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		st = d.RVaaS.SubscriptionStats()
	}
	if st.Violations != 1 || st.Recoveries != 1 {
		t.Errorf("transition counters = %+v, want exactly one of each", st)
	}
	if st.NotificationsSent != 2 || st.NotifyBatches != 2 {
		t.Errorf("notifications sent = %d in %d batches, want 2 in 2 (one per transition, one per pass that had one)",
			st.NotificationsSent, st.NotifyBatches)
	}
}

// TestSubscriptionRecheckExperiment smoke-runs the E12 driver on a small
// topology and sanity-checks the incremental engine actually skipped work.
func TestSubscriptionRecheckExperiment(t *testing.T) {
	row, err := SubscriptionRecheck(NamedTopology{
		Name:  "linear-8",
		Build: func() (*topology.Topology, error) { return topology.Linear(8, nil) },
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if row.Subs != 21 {
		t.Fatalf("subs = %d, want 21 (3 kinds x 7 pairs)", row.Subs)
	}
	if row.IncrementalMean <= 0 || row.NaiveMean <= 0 {
		t.Fatalf("degenerate timings: %+v", row)
	}
	// After a single-switch change only a fraction of invariants may
	// re-evaluate (the count check is the non-flaky form of E12's latency
	// claim).
	if row.EvalsPerCheck >= float64(row.Subs) {
		t.Errorf("incremental recheck evaluated %.1f of %d invariants — not incremental",
			row.EvalsPerCheck, row.Subs)
	}
}
