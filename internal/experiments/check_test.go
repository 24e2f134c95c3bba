package experiments

import (
	"strings"
	"testing"
	"time"
)

// breaks is one way to break exactly one predicate of a row's Check: pred
// is the predicate as the error states it.
type breaks[R any] struct {
	pred  string
	apply func(*R)
}

// testCheck feeds Check a passing row, then for each case the same row with
// that one predicate broken, and asserts the error names that predicate
// and no other.
func testCheck[R interface{ Check() error }](t *testing.T, pass R, cases []breaks[R]) {
	t.Helper()
	if err := pass.Check(); err != nil {
		t.Fatalf("passing row %+v: %v", pass, err)
	}
	for _, c := range cases {
		row := pass
		c.apply(&row)
		err := row.Check()
		if err == nil {
			t.Errorf("%+v: Check passed, want %q broken", row, c.pred)
			continue
		}
		if !strings.Contains(err.Error(), c.pred) {
			t.Errorf("%+v: error %q does not name %q", row, err, c.pred)
		}
		for _, other := range cases {
			if other.pred != c.pred && strings.Contains(err.Error(), other.pred) {
				t.Errorf("%+v: error %q names %q too, want only %q", row, err, other.pred, c.pred)
			}
		}
	}
}

func TestSubscriptionRowCheck(t *testing.T) {
	testCheck(t, SubscriptionRow{Topology: "linear-40", Subs: 117, Speedup: 5}, []breaks[SubscriptionRow]{
		{"incremental ≥ 5× naive", func(r *SubscriptionRow) { r.Speedup = 4.9 }},
	})
}

func TestRecheckRowCheck(t *testing.T) {
	edge := RecheckRow{Topology: "linear-40", Subs: 10000, Bucket: 1000, Evaluated: 1000, Speedup: 5}
	testCheck(t, edge, []breaks[RecheckRow]{
		{"evaluated ≤ bucket", func(r *RecheckRow) { r.Evaluated = 1001 }},
		{"bucket ≤ 10% of subs", func(r *RecheckRow) { r.Bucket, r.Evaluated = 1001, 0 }},
		{"bucket ≤ 10% of subs", func(r *RecheckRow) { r.Subs, r.Bucket, r.Evaluated = 0, 0, 0 }},
		{"exhaustive ≥ 5× incremental", func(r *RecheckRow) { r.Speedup = 4.9 }},
	})
	// The hub site gates the overlap filter, not the bucket size or the
	// speedup.
	hub := RecheckRow{Topology: "star-40", Hub: true, Subs: 10000, Bucket: 10000, Speedup: 1}
	testCheck(t, hub, []breaks[RecheckRow]{
		{"evaluated == 0", func(r *RecheckRow) { r.Evaluated = 1 }},
		{"bucket == subs", func(r *RecheckRow) { r.Bucket = 9999 }},
	})
}

func TestProtocolRowCheck(t *testing.T) {
	pass := ProtocolRow{Topology: "linear-40", Subs: 10000, Speedup: 5, Restored: 10000, Reverified: 10000}
	testCheck(t, pass, []breaks[ProtocolRow]{
		{"batch ≥ 5× sequential", func(r *ProtocolRow) { r.Speedup = 4.9 }},
		{"restored == subs", func(r *ProtocolRow) { r.Restored = 9999 }},
		{"restored == subs", func(r *ProtocolRow) { r.Subs, r.Restored, r.Reverified = 0, 0, 0 }},
		{"reverified ≥ restored", func(r *ProtocolRow) { r.Reverified = 9999 }},
	})
}

func TestFaultEnvelopeRowCheck(t *testing.T) {
	pass := FaultEnvelopeRow{Lab: "placed4", LossPct: 5, Partition: 2500 * time.Millisecond,
		DetachDetect: 400 * time.Millisecond, ReattachConverge: 16 * time.Second, Rejoins: 1}
	testCheck(t, pass, []breaks[FaultEnvelopeRow]{
		{"0 < detach-detect < 2s", func(r *FaultEnvelopeRow) { r.DetachDetect = 0 }},
		{"0 < detach-detect < 2s", func(r *FaultEnvelopeRow) { r.DetachDetect = 2 * time.Second }},
		{"0 < reattach-converge < 25s", func(r *FaultEnvelopeRow) { r.ReattachConverge = 0 }},
		{"0 < reattach-converge < 25s", func(r *FaultEnvelopeRow) { r.ReattachConverge = 25 * time.Second }},
		{"stale-green == 0", func(r *FaultEnvelopeRow) { r.StaleGreen = 1 }},
		{"rejoins ≥ 1", func(r *FaultEnvelopeRow) { r.Rejoins = 0 }},
	})
}

func TestFleetRowCheck(t *testing.T) {
	reach := FleetRow{Topology: "fatwan-4x6", Subs: 10000, Instances: 4, TouchedPerPass: 2, VerdictsMatch: true}
	testCheck(t, reach, []breaks[FleetRow]{
		{"verdicts-match", func(r *FleetRow) { r.VerdictsMatch = false }},
		{"touched/pass < 4", func(r *FleetRow) { r.TouchedPerPass = 4 }},
	})
	// Isolation cones fan a mixed population's passes out to every
	// instance, and one instance cannot touch fewer than itself: neither
	// gates confinement.
	mixed := FleetRow{Topology: "fatwan-4x6", Subs: 10000, IsoSubs: 200, Instances: 4, TouchedPerPass: 4, VerdictsMatch: true}
	testCheck(t, mixed, []breaks[FleetRow]{
		{"verdicts-match", func(r *FleetRow) { r.VerdictsMatch = false }},
	})
	single := FleetRow{Topology: "fatwan-4x6", Subs: 10000, Instances: 1, TouchedPerPass: 1, VerdictsMatch: true}
	testCheck(t, single, nil)
}
