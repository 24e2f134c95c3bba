package experiments

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestFleetSweepSmall is the E18 harness at a toy population, mixed with
// isolation invariants: two arms (N=1 baseline, N=4 fleet) over the same
// WAN, churn and registration sequence. The
// differential gate — fleet verdict streams byte-identical to the single
// engine — holds at any scale, so the small run checks it too.
func TestFleetSweepSmall(t *testing.T) {
	leakcheck.Check(t)
	rows, err := FleetSweep(60, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if err := r.Check(); err != nil {
			t.Error(err)
		}
		if r.Subs != 60 {
			t.Errorf("arm n=%d: registered %d invariants, want 60", r.Instances, r.Subs)
		}
		if r.Violations == 0 {
			t.Errorf("arm n=%d: churn produced no verdict transitions", r.Instances)
		}
	}
	if rows[0].TouchedPerPass != 1 {
		t.Errorf("N=1 touched %.2f instances per pass, want exactly 1", rows[0].TouchedPerPass)
	}
}

// TestFleetConfinement runs E18's claim on an anchor-rooted (no isolation)
// population, where FleetRow.Check adds dispatch confinement: invariants
// place by anchor switch, so a single-switch event must reach only the
// instances owning the dirty buckets — strictly fewer than the fleet size.
func TestFleetConfinement(t *testing.T) {
	leakcheck.Check(t)
	rows, err := FleetSweep(60, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Instances != 4 {
		t.Fatalf("arm order changed: rows[1] = n=%d", rows[1].Instances)
	}
	for _, r := range rows {
		if err := r.Check(); err != nil {
			t.Error(err)
		}
	}
}

// TestFleetDifferentialSurvivesRingOverflow shrinks the violation ring to 4
// records and drives far more transitions than that through every arm: the
// N=4 ≡ N=1 differential folds transitions as they commit, so it must not
// depend on which records the bounded ring happens to retain.
func TestFleetDifferentialSurvivesRingOverflow(t *testing.T) {
	leakcheck.Check(t)
	const historyDepth = 1 // violation ring = 4 × HistoryDepth
	rows, err := fleetSweep(600, 24, 2, historyDepth)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if 2*r.Violations <= 4*historyDepth {
			t.Fatalf("arm n=%d: %d violations do not overflow the ring", r.Instances, r.Violations)
		}
		if !r.VerdictsMatch {
			t.Errorf("arm n=%d: verdict stream diverged from the N=1 baseline once the ring overflowed", r.Instances)
		}
	}
}
