package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/deploy"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Experiment E15: batch registration and durable restart
// recovery. A tenant bringing a fleet of standing invariants online over
// one-at-a-time exchanges — N Subscribe calls, each a one-item
// OpBatchSubscribe — pays, per invariant: a client signature, a frame
// round-trip through the fabric, server-side signature verification, a
// run-lock acquisition for its initial evaluation, reply signing +
// attestation quote, and client-side reply verification. One N-item
// OpBatchSubscribe registers the same population in ONE signed in-band
// exchange — one signature and one verification each way, with the
// initial evaluations fanned across the engine's worker pool. Both phases run fully end-to-end: a real
// agent injecting frames at its access point, interception rules, and
// signed replies verified against the attested enclave key.
//
// The second half measures the ROADMAP's persistence hole being closed:
// the controller is killed and relaunched on its subscription store, and
// we time how long until every invariant is restored, every switch
// re-attached, and every restored invariant re-verified against the
// freshly monitored network.

// ProtocolRow is one row of the E15 table.
type ProtocolRow struct {
	Topology string
	Subs     int
	// SequentialTotal is the wall time to register Subs invariants one
	// signed one-item in-band exchange at a time; BatchTotal the wall time
	// for one signed in-band batch exchange covering all of them.
	SequentialTotal time.Duration
	BatchTotal      time.Duration
	// Speedup is SequentialTotal / BatchTotal.
	Speedup float64
	// RestartRestore is the wall time from killing the controller to a
	// fresh instance having restored the subscription set, re-attached to
	// every switch, and re-verified every restored invariant.
	RestartRestore time.Duration
	// Restored counts subscriptions rebuilt from the store; Reverified
	// counts invariant evaluations the recovery pass ran (>= Restored
	// means every restored invariant was re-checked).
	Restored   int
	Reverified int
}

// Check holds E15's claim: one signed batch registers the population at
// least 5× faster than sequential round-trips, and a kill/restart restores
// every subscription of a non-empty population and re-verifies every
// restored one.
func (r ProtocolRow) Check() error {
	c := claims{row: fmt.Sprintf("%s/subs=%d", r.Topology, r.Subs)}
	c.require(r.Speedup >= 5, "batch ≥ 5× sequential: %.1f×", r.Speedup)
	c.require(r.Subs > 0 && r.Restored == r.Subs, "restored == subs: the restart restored %d of %d", r.Restored, r.Subs)
	c.require(r.Reverified >= r.Restored, "reverified ≥ restored: %d of %d restored subscriptions re-verified", r.Reverified, r.Restored)
	return c.err()
}

// protocolItems builds n cheap neighbor-reachability invariants anchored
// at the first access point (one batch = one anchor). Short footprints
// keep the evaluation cost low, so the measurement isolates what E15 is
// about: the per-registration exchange overhead v2 amortizes.
func protocolItems(topo *topology.Topology, n int) ([]wire.BatchItem, error) {
	aps := topo.AccessPoints()
	if len(aps) < 2 {
		return nil, fmt.Errorf("experiments: need >= 2 access points, have %d", len(aps))
	}
	dst := aps[1]
	items := make([]wire.BatchItem, n)
	for i := range items {
		items[i] = wire.BatchItem{
			Kind: wire.QueryReachableDestinations,
			Constraints: []wire.FieldConstraint{
				{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF},
				// A varying second constraint keeps the invariants distinct
				// without changing the traversal cost.
				{Field: wire.FieldL4Dst, Value: uint64(1024 + i%40000), Mask: 0xFFFF},
			},
		}
	}
	return items, nil
}

// protocolDeploy builds one deployment with a file-backed subscription
// store.
func protocolDeploy(nt NamedTopology) (*deploy.Deployment, *rvaas.FileStore, string, error) {
	topo, err := nt.Build()
	if err != nil {
		return nil, nil, "", err
	}
	dir, err := os.MkdirTemp("", "rvaas-e15-*")
	if err != nil {
		return nil, nil, "", err
	}
	store, err := rvaas.OpenFileStore(rvaas.DefaultStorePath(dir))
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, "", err
	}
	d, err := deploy.New(topo, deploy.Options{
		ManualRecheck: true,
		Persist:       store,
	})
	if err != nil {
		store.Close()
		os.RemoveAll(dir)
		return nil, nil, "", err
	}
	return d, store, dir, nil
}

// ProtocolScale measures E15 on one topology with n invariants, averaging
// every phase over iters iterations (each registration iteration gets a
// fresh deployment; each recovery iteration kills and restores the live
// one, which re-restores from the same store).
func ProtocolScale(nt NamedTopology, n, iters int) (ProtocolRow, error) {
	if iters < 1 {
		iters = 1
	}
	row := ProtocolRow{Topology: nt.Name, Subs: n}

	// --- sequential in-band round-trips: N one-item batches --------------
	var seqTotal time.Duration
	for it := 0; it < iters; it++ {
		err := func() error {
			d, store, dir, err := protocolDeploy(nt)
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			defer store.Close()
			defer d.Close()
			items, err := protocolItems(d.Topology, n)
			if err != nil {
				return err
			}
			ag := d.Agent(d.Topology.AccessPoints()[0].ClientID)
			start := time.Now()
			for i, item := range items {
				if _, err := ag.Subscribe(item.Kind, item.Constraints, item.Param); err != nil {
					return fmt.Errorf("experiments: sequential subscribe %d: %w", i, err)
				}
			}
			seqTotal += time.Since(start)
			return nil
		}()
		if err != nil {
			return row, err
		}
	}
	row.SequentialTotal = seqTotal / time.Duration(iters)

	// --- one signed in-band batch exchange, then kill + restore ----------
	var batchTotal, restoreTotal time.Duration
	for it := 0; it < iters; it++ {
		err := func() error {
			d, store, dir, err := protocolDeploy(nt)
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			defer store.Close()
			defer d.Close()
			items, err := protocolItems(d.Topology, n)
			if err != nil {
				return err
			}
			ag := d.Agent(d.Topology.AccessPoints()[0].ClientID)
			start := time.Now()
			subs, err := ag.BatchSubscribe(items)
			batchTotal += time.Since(start)
			if err != nil {
				return fmt.Errorf("experiments: batch subscribe: %w", err)
			}
			for i, sub := range subs {
				if sub == nil {
					return fmt.Errorf("experiments: batch item %d rejected", i)
				}
			}

			start = time.Now()
			if err := d.RestartRVaaS(); err != nil {
				return err
			}
			d.RVaaS.RecheckNow()
			restoreTotal += time.Since(start)
			st := d.RVaaS.SubscriptionStats()
			row.Restored = int(st.Restored)
			row.Reverified = int(st.Evaluated)
			if live := len(d.RVaaS.Subscriptions()); live != n {
				return fmt.Errorf("experiments: restart restored %d of %d subscriptions", live, n)
			}
			return nil
		}()
		if err != nil {
			return row, err
		}
	}
	row.BatchTotal = batchTotal / time.Duration(iters)
	row.RestartRestore = restoreTotal / time.Duration(iters)
	if row.BatchTotal > 0 {
		row.Speedup = float64(row.SequentialTotal) / float64(row.BatchTotal)
	}
	return row, nil
}

// ProtocolSweep runs E15 at the headline population plus a smaller control
// point. On error it returns the rows completed before the failing one.
func ProtocolSweep(iters int) ([]ProtocolRow, error) {
	cases := []struct {
		nt NamedTopology
		n  int
	}{
		{NamedTopology{Name: "linear-40", Build: func() (*topology.Topology, error) { return topology.Linear(40, nil) }}, 1000},
		{NamedTopology{Name: "linear-40", Build: func() (*topology.Topology, error) { return topology.Linear(40, nil) }}, 10000},
	}
	rows := make([]ProtocolRow, 0, len(cases))
	for _, cs := range cases {
		row, err := ProtocolScale(cs.nt, cs.n, iters)
		if err != nil {
			return rows, fmt.Errorf("e15 %s/%d: %w", cs.nt.Name, cs.n, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
