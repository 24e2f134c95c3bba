package experiments

import (
	"testing"

	"repro/internal/topology"
)

// TestRuleDeltaExperiment smoke-runs the E14 row on a small star and checks
// its headline claim deterministically, from one incremental pass: after a
// hub change the dirty bucket is (essentially) the whole population, the
// overlap filter excuses all of it, and the exhaustive reference — run
// inside RecheckAt over the state the incremental passes left — flips
// nothing.
func TestRuleDeltaExperiment(t *testing.T) {
	row, err := RecheckAt(RecheckSite{
		Experiment: "e14",
		Topology:   NamedTopology{Name: "star-8", Build: func() (*topology.Topology, error) { return topology.Star(8) }},
		Hub:        true,
	}, 40, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.Subs != 40 {
		t.Fatalf("subs = %d, want 40", row.Subs)
	}
	if row.ExhaustiveMedian <= 0 || row.IncrementalMedian <= 0 || row.OneWorkerMedian <= 0 {
		t.Fatalf("degenerate timings: %+v", row)
	}
	// Every invariant crosses the hub: the dirty bucket is the whole
	// population.
	if row.Bucket < 9*row.Subs/10 {
		t.Errorf("bucket = %d, want ≈ %d (hub topology)", row.Bucket, row.Subs)
	}
	// The churn rule's header space overlaps no invariant's traversal
	// slice: the overlap filter excuses the whole bucket.
	if row.Evaluated != 0 || row.DeltaSkipped != row.Bucket {
		t.Errorf("evaluated %d, delta-skipped %d of a %d bucket; want 0 and the whole bucket", row.Evaluated, row.DeltaSkipped, row.Bucket)
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
