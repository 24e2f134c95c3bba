package experiments

import (
	"testing"

	"repro/internal/topology"
)

// TestRuleDeltaExperiment smoke-runs the E14 row at a small population and
// checks its headline claim deterministically, from one incremental pass:
// after a hub change the dirty bucket is the whole population, the overlap
// filter excuses all of it — the isolation invariants included,
// whose 39 cones each cross the hub — and the exhaustive reference — run
// inside RecheckAt over the state the incremental passes left — flips
// nothing.
func TestRuleDeltaExperiment(t *testing.T) {
	row, err := RecheckAt(RecheckHub, 80, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.Subs != 80 {
		t.Fatalf("subs = %d, want 80", row.Subs)
	}
	if row.ExhaustiveMedian <= 0 || row.IncrementalMedian <= 0 || row.OneWorkerMedian <= 0 {
		t.Fatalf("degenerate timings: %+v", row)
	}
	// E14's claim at toy scale: every invariant crosses the hub, and the
	// churn rule's header space overlaps no traversal slice there.
	if err := row.Check(); err != nil {
		t.Error(err)
	}
	if row.DeltaSkipped != row.Bucket {
		t.Errorf("delta-skipped %d of a %d bucket; want the whole bucket", row.DeltaSkipped, row.Bucket)
	}
}

// TestNeutralHubEventSweepsNoIsolationCone: three isolation invariants on
// star-40 put 39 cones each through the hub. A hub rule on headers none of
// them carries dispatches no cone, so no invariant is evaluated and no cone
// re-swept — where a union of the cones' slices, past the footprint's term
// cap, would read "everything" and re-aggregate all three — and the
// exhaustive reference then flips nothing.
func TestNeutralHubEventSweepsNoIsolationCone(t *testing.T) {
	lab, err := NewRecheckLab(RecheckHub, 3, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	if err := lab.Event(); err != nil {
		t.Fatal(err)
	}
	ctl := lab.D.RVaaS
	before := ctl.SubscriptionStats()
	ctl.RecheckNow()
	after := ctl.SubscriptionStats()
	if after.Rechecks != before.Rechecks+1 {
		t.Fatalf("the hub event ran %d passes, want 1", after.Rechecks-before.Rechecks)
	}
	if n := after.Evaluated - before.Evaluated; n != 0 {
		t.Errorf("a verdict-neutral hub rule evaluated %d invariants, want 0", n)
	}
	if n := after.IsoPointsSwept - before.IsoPointsSwept; n != 0 {
		t.Errorf("a verdict-neutral hub rule re-swept %d cones, want 0", n)
	}
	if n := after.DeltaSkipped - before.DeltaSkipped; n != 3 {
		t.Errorf("delta-skipped %d, want all 3 invariants indexed at the hub", n)
	}
	ctl.RevalidateAll()
	if end := ctl.SubscriptionStats(); end.Violations != before.Violations || end.Recoveries != before.Recoveries {
		t.Errorf("the exhaustive reference flipped %d/%d verdicts the incremental pass carried forward",
			end.Violations-before.Violations, end.Recoveries-before.Recoveries)
	}
}

// TestScaleOutExperiment smoke-runs the E13 row on a short chain: an event
// at the edge puts only the invariants anchored next to it in the bucket.
func TestScaleOutExperiment(t *testing.T) {
	row, err := RecheckAt(RecheckSite{
		Experiment: "e13",
		Topology:   NamedTopology{Name: "linear-8", Build: func() (*topology.Topology, error) { return topology.Linear(8, nil) }},
	}, 70, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 70 reachability invariants over 7 adjacent pairs: only the last
	// pair's 10 cross the edge switch.
	if row.Bucket != 10 {
		t.Errorf("bucket = %d, want 10 (the edge pair's invariants)", row.Bucket)
	}
	if row.Evaluated > row.Bucket {
		t.Errorf("evaluated %d > bucket %d", row.Evaluated, row.Bucket)
	}
}

// BenchmarkE13E14Recheck times one re-verification pass over the
// experiments' 10⁴-invariant population after a verdict-neutral
// single-switch event — at the edge of linear-40 (E13) and at the hub of
// star-40 (E14) — on the incremental engine and on the exhaustive
// reference, counting allocations. The labs and the event are the sweep's
// own (RecheckLab).
func BenchmarkE13E14Recheck(b *testing.B) {
	for _, site := range []RecheckSite{RecheckEdge, RecheckHub} {
		lab, err := NewRecheckLab(site, 10000, 40, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, arm := range []struct {
			name string
			pass func()
		}{
			{"incremental", lab.D.RVaaS.RecheckNow},
			{"exhaustive", lab.D.RVaaS.RevalidateAll},
		} {
			b.Run(site.Experiment+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := lab.Event(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					arm.pass()
				}
			})
		}
		lab.Close()
	}
}
