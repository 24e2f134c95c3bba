package experiments

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"repro/internal/deploy"
	"repro/internal/openflow"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/verifier"
	"repro/internal/wire"
)

// Experiment E18: verifier fleet partitioning. The standing-invariant
// engine runs as N verifier instances behind a fleet router; anchor-rooted
// invariants place by anchor-switch rendezvous, isolation invariants by
// id. Each arm registers the same invariant population on a multi-region
// fat WAN (a host, hence an anchor, on every switch), absorbs the same
// single-switch churn sequence, and reports
//
//   - registration (initial-evaluation) wall time and the mean
//     incremental re-check pass after a neutral single-switch change;
//   - the confinement ratio: instances visited per indexed pass. A
//     single-switch event reaches only the instances owning an affected
//     index bucket;
//   - a differential verdict fingerprint against the N=1 baseline, fed by
//     a blackhole install/remove cycle that flips real verdicts:
//     per-subscription final (seq, violated, detail) plus its ordered
//     transition stream, folded as it commits. The fleets must match the
//     single engine byte-for-byte — partitioning is a performance layout,
//     never a semantics change.

// FleetRow is one arm of the E18 table.
type FleetRow struct {
	Topology string
	Switches int
	Subs     int
	// IsoSubs of the Subs are isolation invariants (0: the anchor-rooted
	// "reach" population).
	IsoSubs int
	// Instances is the size of the fleet under test.
	Instances int
	// RegisterTotal is the wall time registering (and initially
	// evaluating) the whole population; RecheckMean the mean
	// single-switch incremental pass.
	RegisterTotal time.Duration
	RecheckMean   time.Duration
	// TouchedPerPass is instances visited per indexed pass
	// (InstanceDispatches / FleetPasses over the measured passes).
	TouchedPerPass float64
	// VerdictsMatch reports the differential check against the N=1
	// baseline arm (vacuously true on the baseline itself).
	VerdictsMatch bool
	// Violations counts verdict transitions to violated over the run.
	Violations uint64
}

// Pop names the row's population: "reach" (anchor-rooted reachability
// only) or "mixed" (with isolation invariants).
func (r FleetRow) Pop() string {
	if r.IsoSubs == 0 {
		return "reach"
	}
	return "mixed"
}

// Check holds E18's claim: the arm's merged verdict stream equals the N=1
// reference's byte for byte, and on the anchor-rooted population a fleet
// confines a single-switch pass to fewer instances than it has. (Isolation
// cones put a bucket for every switch on every instance, so a mixed
// population legitimately fans out.)
func (r FleetRow) Check() error {
	c := claims{row: fmt.Sprintf("%s/%s/n=%d", r.Topology, r.Pop(), r.Instances)}
	c.require(r.VerdictsMatch, "verdicts-match: the merged verdict stream diverged from the N=1 reference")
	if r.IsoSubs == 0 && r.Instances > 1 {
		c.require(r.TouchedPerPass < float64(r.Instances), "touched/pass < %d: a single-switch pass touched %.2f instances",
			r.Instances, r.TouchedPerPass)
	}
	return c.err()
}

// FleetWAN builds the E18 fabric: regions of chained switches joined by
// inter-region trunks, with a client host on every switch — the "fat"
// access layer that spreads invariant anchors across the whole fabric.
// Ports: 1 left, 2 right (intra-region chain), 3 trunk-in, 4 trunk-out,
// 5 host.
func FleetWAN(regionNames []topology.Region, perRegion int) (*topology.Topology, error) {
	if len(regionNames) < 2 || perRegion < 2 {
		return nil, fmt.Errorf("experiments: fleet wan needs >= 2 regions and >= 2 switches each")
	}
	t := topology.New()
	id := func(region, i int) topology.SwitchID { return topology.SwitchID(region*1000 + i + 1) }
	client := uint64(0)
	for ri, name := range regionNames {
		for i := 0; i < perRegion; i++ {
			sw := id(ri, i)
			t.AddSwitch(sw, 5)
			t.SetRegion(sw, name)
			client++
			mac, ip := topology.HostAddr(sw, 0)
			err := t.AddAccessPoint(topology.AccessPoint{
				Endpoint: topology.Endpoint{Switch: sw, Port: 5},
				ClientID: client, HostMAC: mac, HostIP: ip,
			})
			if err != nil {
				return nil, err
			}
		}
		for i := 0; i+1 < perRegion; i++ {
			err := t.AddLink(topology.Link{
				A:             topology.Endpoint{Switch: id(ri, i), Port: 2},
				B:             topology.Endpoint{Switch: id(ri, i+1), Port: 1},
				LatencyMicros: 50,
			})
			if err != nil {
				return nil, err
			}
		}
	}
	for ri := 0; ri+1 < len(regionNames); ri++ {
		err := t.AddLink(topology.Link{
			A:             topology.Endpoint{Switch: id(ri, perRegion-1), Port: 4},
			B:             topology.Endpoint{Switch: id(ri+1, 0), Port: 3},
			LatencyMicros: 5000,
		})
		if err != nil {
			return nil, err
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// transitionFold keeps, per subscription, a running hash of its verdict
// transitions in commit order. It is fed from the controller's commit tap,
// so it covers every transition of the run — the bounded violation ring
// does not: past its capacity, which records survive depends on the commit
// order across instances, which is not part of the semantics under test.
type transitionFold struct {
	mu    sync.Mutex
	bySub map[uint64]uint64
}

func (f *transitionFold) tap(t *verifier.Transition) {
	if !t.Changed {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|violated=%v snapshot=%d detail=%q", f.bySub[t.Sub.ID], t.Violated, t.SnapshotID, t.Detail)
	f.bySub[t.Sub.ID] = h.Sum64()
}

// fingerprint serializes every subscription's verdict state and folded
// transition history into one comparable string.
func (f *transitionFold) fingerprint(subs []rvaas.SubscriptionInfo) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b strings.Builder
	for _, sub := range subs {
		fmt.Fprintf(&b, "sub=%d client=%d kind=%s seq=%d violated=%v detail=%q transitions=%016x\n",
			sub.ID, sub.ClientID, sub.Kind, sub.Seq, sub.Violated, sub.Detail, f.bySub[sub.ID])
	}
	return b.String()
}

// fleetArm runs one fleet configuration: deploy, register the population,
// measure iters neutral churn passes on a single transit switch (dispatch
// cost + confinement), then drive iters blackhole install/remove cycles
// that flip real verdicts, and fingerprint the result. historyDepth sizes
// the controller's snapshot history and, with it, the violation ring
// (0 = default).
func fleetArm(nt NamedTopology, instances, totalSubs, isoSubs, iters, historyDepth int) (FleetRow, string, error) {
	row := FleetRow{Topology: nt.Name, IsoSubs: isoSubs, Instances: instances}
	topo, err := nt.Build()
	if err != nil {
		return row, "", err
	}
	d, err := deploy.New(topo, deploy.Options{
		SkipAgents:    true,
		ManualRecheck: true,
		Verifiers:     instances,
		HistoryDepth:  historyDepth,
	})
	if err != nil {
		return row, "", err
	}
	defer d.Close()
	row.Switches = len(topo.Switches())
	fold := &transitionFold{bySub: make(map[uint64]uint64)}
	d.RVaaS.SetCommitTap(fold.tap)

	start := time.Now()
	n, err := BuildRecheckPopulation(d, topo, totalSubs, isoSubs)
	if err != nil {
		return row, "", err
	}
	row.RegisterTotal = time.Since(start)
	row.Subs = n

	// The churned switch: a mid-chain transit switch of the last region —
	// inside real footprints (its neighbors' adjacent-pair invariants
	// cross it) but far from the bulk of the population, so the dirty
	// bucket is a proper slice.
	aps := topo.AccessPoints()
	victimAP := aps[len(aps)-2]
	victim := victimAP.Endpoint.Switch
	// Quiesce: let any still-in-flight bring-up or registration events
	// land before baselining, so the absolute event counting below is
	// exact.
	stable := d.RVaaS.SnapshotID()
	for settleDeadline := time.Now().Add(2 * time.Second); time.Now().Before(settleDeadline); {
		time.Sleep(2 * time.Millisecond)
		if now := d.RVaaS.SnapshotID(); now != stable {
			stable = now
			continue
		}
		break
	}
	// Each settle emits exactly one flow event on the victim's ordered
	// channel, so after k settles the snapshot is exactly base+k — waiting
	// on the absolute count (not current+1, which a still-in-flight prior
	// event could satisfy early) keeps the event/recheck interleaving, and
	// with it every transition's SnapshotID, identical across arms.
	base := d.RVaaS.SnapshotID()
	churn := 0
	settle := func(e openflow.FlowEntry, install bool) error {
		churn++
		want := base + uint64(churn)
		if install {
			d.Fabric.Switch(victim).InstallDirect(e)
		} else {
			d.Fabric.Switch(victim).RemoveDirect(e)
		}
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if d.RVaaS.SnapshotID() >= want {
				return nil
			}
			time.Sleep(50 * time.Microsecond)
		}
		return fmt.Errorf("experiments: churn event %d not absorbed on %s", churn, nt.Name)
	}
	neutral := subscriptionChurnEntry(1)

	// Warm up footprints and cones with one full neutral cycle.
	for _, install := range []bool{true, false} {
		if err := settle(neutral, install); err != nil {
			return row, "", err
		}
		d.RVaaS.RecheckNow()
	}

	// Phase 1: neutral churn — pure dispatch cost and confinement.
	before := d.RVaaS.SubscriptionStats()
	var total time.Duration
	for i := 0; i < iters; i++ {
		for _, install := range []bool{true, false} {
			if err := settle(neutral, install); err != nil {
				return row, "", err
			}
			t0 := time.Now()
			d.RVaaS.RecheckNow()
			total += time.Since(t0)
		}
	}
	after := d.RVaaS.SubscriptionStats()
	row.RecheckMean = total / time.Duration(2*iters)
	if passes := after.FleetPasses - before.FleetPasses; passes > 0 {
		row.TouchedPerPass = float64(after.InstanceDispatches-before.InstanceDispatches) / float64(passes)
	}

	// Phase 2: verdict churn — blackhole the victim's own host so the
	// invariants whose footprint crosses it flip violated and back,
	// exercising the merged verdict stream the fingerprint compares.
	blackhole := openflow.FlowEntry{
		Priority: 3200,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(victimAP.HostIP), Mask: 0xFFFFFFFF},
		}},
		Cookie: 0xB1AC_0018,
	}
	for i := 0; i < iters; i++ {
		for _, install := range []bool{true, false} {
			if err := settle(blackhole, install); err != nil {
				return row, "", err
			}
			d.RVaaS.RecheckNow()
		}
	}
	row.Violations = d.RVaaS.SubscriptionStats().Violations

	return row, fold.fingerprint(d.RVaaS.Subscriptions()), nil
}

// FleetSweep runs E18: the N=1 baseline and the N=4 fleet over the same
// fat WAN, population and churn sequence. The fleet arm is differentially
// checked against the baseline fingerprint. On error it returns the arms
// completed before the failing one.
func FleetSweep(totalSubs, isoSubs, iters int) ([]FleetRow, error) {
	return fleetSweep(totalSubs, isoSubs, iters, 0)
}

func fleetSweep(totalSubs, isoSubs, iters, historyDepth int) ([]FleetRow, error) {
	if iters < 1 {
		iters = 1
	}
	nt := NamedTopology{
		Name: "fatwan-4x6",
		Build: func() (*topology.Topology, error) {
			return FleetWAN([]topology.Region{"us", "eu", "ap", "sa"}, 6)
		},
	}
	var rows []FleetRow
	baseline := ""
	for _, instances := range []int{1, 4} {
		row, fp, err := fleetArm(nt, instances, totalSubs, isoSubs, iters, historyDepth)
		if err != nil {
			return rows, fmt.Errorf("e18 n=%d: %w", instances, err)
		}
		if baseline == "" {
			baseline = fp
			row.VerdictsMatch = true
		} else {
			row.VerdictsMatch = fp == baseline
		}
		rows = append(rows, row)
	}
	return rows, nil
}
