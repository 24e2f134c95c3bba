package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/deploy"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Experiments E13 and E14: one re-verification pass over ~10⁴ standing
// invariants after a verdict-neutral single-switch event, on the
// incremental engine (traversal-class index → one rule-delta overlap test
// per class → evaluate the dirty traversals, pooled workers) versus the
// exhaustive reference (RevalidateAll: every invariant from scratch). The
// two experiments are the same sweep at two sites:
//
//   - E13, the edge of linear-40: the switch sits in few footprints, so
//     the dirty bucket is a small slice of the population — the indexed
//     dispatch claim (per-event work is O(touched), not O(population)).
//   - E14, the hub of star-40: every invariant's path crosses the hub, so
//     the dirty bucket is the whole population — the overlap-filter claim
//     (a rule change touching headers no traversal carries there re-runs
//     no invariant, isolation invariants and their 39 cones included).
//
// Counts come from ONE incremental pass, not from running a second
// engine: the dirty-bucket size is IndexDispatched + DeltaSkipped (every
// invariant indexed at the dirty switch), of which Evaluated re-ran. Each row ends with the differential: an exhaustive pass over the
// state the incremental passes left behind must flip no verdict.

// RecheckSite names one row family of the sweep: where the event lands.
type RecheckSite struct {
	// Experiment is the benchharness id the site reports under.
	Experiment string
	Topology   NamedTopology
	// Hub selects the churned switch: the topology's first switch (a
	// star's hub) instead of its last (a chain's edge).
	Hub bool
}

// The two sites of the sweep.
var (
	// RecheckEdge is E13: an event at the last switch of linear-40.
	RecheckEdge = RecheckSite{Experiment: "e13", Topology: NamedTopology{
		Name: "linear-40", Build: func() (*topology.Topology, error) { return topology.Linear(40, nil) }}}
	// RecheckHub is E14: an event at the hub of star-40.
	RecheckHub = RecheckSite{Experiment: "e14", Hub: true, Topology: NamedTopology{
		Name: "star-40", Build: func() (*topology.Topology, error) { return topology.Star(40) }}}
)

// RecheckRow is one row of the E13/E14 table.
type RecheckRow struct {
	Topology string
	// Hub is the site's: the event landed at a hub (E14), not an edge (E13).
	Hub bool
	// Subs is the registered invariant population; IsoSubs of them are
	// isolation invariants (every-edge-port sweeps, the expensive kind).
	Subs    int
	IsoSubs int
	// Bucket, Evaluated, DeltaSkipped, IsoSwept and IsoReused are the
	// counts of one incremental pass: invariants indexed at the dirty
	// switch, the ones that re-ran, the ones the overlap test excused, and
	// — over the isolation invariants that re-ran — the
	// per-injection-point cones re-swept versus served from the cone cache.
	Bucket       int
	Evaluated    int
	DeltaSkipped int
	IsoSwept     int
	IsoReused    int
	// ExhaustiveMedian/IncrementalMedian are the median pass latencies of
	// RevalidateAll and RecheckNow at GOMAXPROCS workers;
	// OneWorkerMedian is RecheckNow on a deployment built with
	// RecheckParallelism 1.
	ExhaustiveMedian  time.Duration
	IncrementalMedian time.Duration
	OneWorkerMedian   time.Duration
	// Speedup is ExhaustiveMedian / IncrementalMedian.
	Speedup float64
}

// Check holds the claim of the row's site. At an edge (E13) the dirty
// bucket is at most a tenth of a non-empty population, the pass evaluates
// within it, and the exhaustive reference takes at least 5× one
// incremental pass. At a hub (E14) every invariant is indexed at the dirty
// switch and the verdict-neutral event evaluates none of them: no
// traversal class there carries the headers the rule touches.
func (r RecheckRow) Check() error {
	c := claims{row: fmt.Sprintf("%s/subs=%d", r.Topology, r.Subs)}
	if r.Hub {
		c.require(r.Evaluated == 0, "evaluated == 0: a verdict-neutral hub event evaluated %d invariants", r.Evaluated)
		c.require(r.Bucket == r.Subs, "bucket == subs: the dirty bucket holds %d of %d invariants", r.Bucket, r.Subs)
		return c.err()
	}
	c.require(r.Evaluated <= r.Bucket, "evaluated ≤ bucket: evaluated %d of a %d-invariant bucket", r.Evaluated, r.Bucket)
	c.require(r.Subs > 0 && 10*r.Bucket <= r.Subs, "bucket ≤ 10%% of subs: the dirty bucket holds %d of %d invariants", r.Bucket, r.Subs)
	c.require(r.Speedup >= 5, "exhaustive ≥ 5× incremental: %.1f×", r.Speedup)
	return c.err()
}

// BuildRecheckPopulation registers a mixed standing-invariant population:
// total-iso cheap neighbor-reachability invariants spread round-robin over
// the adjacent access-point pairs (each footprint is a two-switch
// segment), plus iso isolation invariants spread over the access points
// (each sweeps every edge port). It returns the number registered.
func BuildRecheckPopulation(d *deploy.Deployment, topo *topology.Topology, total, iso int) (int, error) {
	aps := topo.AccessPoints()
	if len(aps) < 2 {
		return 0, fmt.Errorf("experiments: need >= 2 access points, have %d", len(aps))
	}
	if iso > total {
		iso = total
	}
	registered := 0
	for k := 0; k < total-iso; k++ {
		i := k % (len(aps) - 1)
		dst := aps[i+1]
		if _, err := d.RVaaS.Subscribe(aps[i].ClientID, wire.QueryReachableDestinations,
			[]wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF}},
			"", aps[i].Endpoint); err != nil {
			return registered, err
		}
		registered++
	}
	// Isolation invariants skip the last access point: experiments churn the
	// last switch, and an isolation invariant anchored THERE has every
	// injection-point cone dirtied by the churn — one invariant whose
	// re-sweep is as large as a full evaluation, which would swamp the
	// dirty-bucket measurement the experiment is after.
	for k := 0; k < iso; k++ {
		ap := aps[k%(len(aps)-1)]
		if _, err := d.RVaaS.Subscribe(ap.ClientID, wire.QueryIsolation,
			[]wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(ap.HostIP), Mask: 0xFFFFFFFF}},
			"", ap.Endpoint); err != nil {
			return registered, err
		}
		registered++
	}
	return registered, nil
}

// RecheckLab is a deployment carrying the E13/E14 population, with the
// site's switch ready to be churned. The sweep, its tests and
// BenchmarkE13E14Recheck all drive this one definition.
type RecheckLab struct {
	D    *deploy.Deployment
	Subs int

	name   string
	victim topology.SwitchID
	churn  int
}

// NewRecheckLab deploys the site's topology with the given recheck
// parallelism (0 = GOMAXPROCS), registers the population and runs one
// warm-up event + pass so footprints, cones and the compile cache are
// populated.
func NewRecheckLab(site RecheckSite, totalSubs, isoSubs, parallelism int) (*RecheckLab, error) {
	topo, err := site.Topology.Build()
	if err != nil {
		return nil, err
	}
	d, err := deploy.New(topo, deploy.Options{SkipAgents: true, ManualRecheck: true, RecheckParallelism: parallelism})
	if err != nil {
		return nil, err
	}
	sws := topo.Switches()
	lab := &RecheckLab{D: d, name: site.Topology.Name, victim: sws[len(sws)-1]}
	if site.Hub {
		lab.victim = sws[0]
	}
	if lab.Subs, err = BuildRecheckPopulation(d, topo, totalSubs, isoSubs); err == nil {
		err = lab.Event()
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	d.RVaaS.RecheckNow()
	return lab, nil
}

// Close tears the deployment down.
func (l *RecheckLab) Close() { l.D.Close() }

// Event installs and removes one verdict-neutral rule on the site's
// switch — a destination no invariant's scope contains, shadowed by
// nothing, so its rule delta is its whole match space — and waits until
// the controller has absorbed both flow events.
func (l *RecheckLab) Event() error {
	l.churn++
	want := l.D.RVaaS.SnapshotID() + 2
	e := subscriptionChurnEntry(l.churn)
	l.D.Fabric.Switch(l.victim).InstallDirect(e)
	l.D.Fabric.Switch(l.victim).RemoveDirect(e)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if l.D.RVaaS.SnapshotID() >= want {
			return nil
		}
		time.Sleep(50 * time.Microsecond)
	}
	return fmt.Errorf("experiments: churn events not absorbed on %s", l.name)
}

// medianPass times pass after each of iters events and returns the median.
func (l *RecheckLab) medianPass(iters int, pass func()) (time.Duration, error) {
	samples := make([]time.Duration, iters)
	for i := range samples {
		if err := l.Event(); err != nil {
			return 0, err
		}
		start := time.Now()
		pass()
		samples[i] = time.Since(start)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2], nil
}

// RecheckAt measures one row: the site at one population.
func RecheckAt(site RecheckSite, totalSubs, isoSubs, iters int) (RecheckRow, error) {
	if iters < 1 {
		iters = 1
	}
	row := RecheckRow{Topology: site.Topology.Name, Hub: site.Hub, IsoSubs: isoSubs}
	lab, err := NewRecheckLab(site, totalSubs, isoSubs, 0)
	if err != nil {
		return row, err
	}
	defer lab.Close()
	row.Subs = lab.Subs
	ctl := lab.D.RVaaS

	if err := lab.Event(); err != nil {
		return row, err
	}
	before := ctl.SubscriptionStats()
	ctl.RecheckNow()
	after := ctl.SubscriptionStats()
	row.Evaluated = int(after.Evaluated - before.Evaluated)
	row.DeltaSkipped = int(after.DeltaSkipped - before.DeltaSkipped)
	row.Bucket = int(after.IndexDispatched-before.IndexDispatched) + row.DeltaSkipped
	row.IsoSwept = int(after.IsoPointsSwept - before.IsoPointsSwept)
	row.IsoReused = int(after.IsoPointsReused - before.IsoPointsReused)

	if row.IncrementalMedian, err = lab.medianPass(iters, ctl.RecheckNow); err != nil {
		return row, err
	}
	// The exhaustive arm doubles as the differential: it runs over what
	// the incremental passes carried forward, and the events were
	// verdict-neutral, so it must flip nothing.
	if row.ExhaustiveMedian, err = lab.medianPass(iters, ctl.RevalidateAll); err != nil {
		return row, err
	}
	if end := ctl.SubscriptionStats(); end.Violations != before.Violations || end.Recoveries != before.Recoveries {
		return row, fmt.Errorf("experiments: %s: the exhaustive reference flipped %d/%d verdicts the incremental engine had carried forward",
			site.Experiment, end.Violations-before.Violations, end.Recoveries-before.Recoveries)
	}
	if row.IncrementalMedian > 0 {
		row.Speedup = float64(row.ExhaustiveMedian) / float64(row.IncrementalMedian)
	}

	one, err := NewRecheckLab(site, totalSubs, isoSubs, 1)
	if err != nil {
		return row, err
	}
	defer one.Close()
	row.OneWorkerMedian, err = one.medianPass(iters, one.D.RVaaS.RecheckNow)
	return row, err
}

// RecheckSweep runs one experiment's site at the headline population (10⁴
// invariants) plus a smaller control point. On error it returns the rows
// completed before the failing one.
func RecheckSweep(site RecheckSite, iters int) ([]RecheckRow, error) {
	var rows []RecheckRow
	for _, pop := range []struct{ total, iso int }{{1000, 20}, {10000, 40}} {
		row, err := RecheckAt(site, pop.total, pop.iso, iters)
		if err != nil {
			return rows, fmt.Errorf("%s %s/%d: %w", site.Experiment, site.Topology.Name, pop.total, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
