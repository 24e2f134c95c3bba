package rvaas

import (
	"repro/internal/headerspace"
	"repro/internal/topology"
	"repro/internal/verifier"
)

// Isolation invariants ("which sources can reach my network card?") are
// the most expensive standing invariants: one evaluation injects the
// scoped space at EVERY edge port of the network and traverses each
// injection independently. The pre-cone engine re-ran that full sweep on
// every re-check whose dirty set crossed the invariant's (union) footprint
// — even though a single-switch change can only alter the traversals whose
// own cone crosses that switch.
//
// The cone cache keeps, per injection point, the point's visited cone
// (headerspace.Footprint) and its outcome (does it reach the subscriber,
// and over which path lengths). A re-run sweeps only the points whose cone
// was dirtied; every other point's cached outcome is provably still valid,
// because its traversal consulted no changed transfer function.

// isoSequentialSweepMax bounds the cone re-sweep size evaluated without
// internal fan-out (the engine's cross-invariant worker pool already
// covers small sweeps).
const isoSequentialSweepMax = 16

// isoCone is one injection point's cached traversal outcome.
type isoCone struct {
	fp      headerspace.Footprint
	reaches bool
	lens    []int
}

// isoConeCache is one isolation subscription's per-injection-point state,
// carried in verifier.Subscription.Cones. It is touched only during
// evaluation, which the owning instance's run lock serializes (each
// subscription is evaluated by at most one worker per pass, and passes on
// one instance do not overlap).
type isoConeCache struct {
	points []headerspace.InjectionPoint
	eps    []topology.Endpoint
	cones  []isoCone
	primed bool
}

// newIsoConeCache enumerates the sweep set: every edge port except the
// subscriber's own (which trivially reaches itself).
func (c *Controller) newIsoConeCache(req requesterInfo) *isoConeCache {
	cache := &isoConeCache{}
	for _, ep := range c.topo.EdgePorts() {
		if ep.Switch == req.sw && ep.Port == req.port {
			continue
		}
		cache.points = append(cache.points, headerspace.InjectionPoint{
			Node: headerspace.NodeID(ep.Switch), Port: headerspace.PortID(ep.Port),
		})
		cache.eps = append(cache.eps, ep)
	}
	cache.cones = make([]isoCone, len(cache.points))
	return cache
}

// evaluateIsolation runs one standing isolation invariant. With fullSweep
// (registration, RevalidateAll, restore) every injection point is
// traversed; otherwise only the points whose cone SLICE at some dispatched
// switch overlaps that switch's rule delta re-run (a cone that merely
// passes through a dirty hub is reused when the changed rules touch none
// of the headers it carried there). The rest reuse their cached outcome. The aggregate verdict and footprint are byte-identical
// to a full sweep, so switching between the paths can never manufacture a
// verdict transition.
func (c *Controller) evaluateIsolation(net *headerspace.Network, sub *verifier.Subscription, deltas map[headerspace.NodeID]headerspace.Delta, fullSweep, pooled bool) verifier.Verdict {
	cache, _ := sub.Cones.(*isoConeCache)
	if cache == nil {
		cache = c.newIsoConeCache(reqOf(sub))
		sub.Cones = cache
	}
	space := scopeSpace(sub.Constraints)

	var v verifier.Verdict
	var sweep []int
	if fullSweep || !cache.primed {
		sweep = make([]int, len(cache.points))
		for i := range sweep {
			sweep[i] = i
		}
	} else {
		for i := range cache.cones {
			if cache.cones[i].fp.InvalidatedBy(deltas) {
				sweep = append(sweep, i)
			}
		}
		v.IsoPointsReused = uint64(len(cache.points) - len(sweep))
	}
	v.IsoPointsSwept = uint64(len(sweep))

	if len(sweep) > 0 {
		points := make([]headerspace.InjectionPoint, len(sweep))
		for i, idx := range sweep {
			points[i] = cache.points[idx]
		}
		// Inside a multi-worker pass the pool already provides the
		// fan-out: nesting ReachAll's own workers per invariant would
		// oversubscribe the cores (a force pass over N isolation
		// invariants would run ~P² traversal goroutines on P cores). The
		// exception is an incremental straggler — one invariant whose
		// whole view was dirtied among otherwise-small work items — which
		// keeps ReachAll's fan-out so it cannot pin the pass to a single
		// core. Outside the pool (registration, single-worker passes)
		// ReachAll parallelizes as before.
		opt := headerspace.ReachOptions{RecordFootprint: true}
		straggler := !fullSweep && len(sweep) > isoSequentialSweepMax
		if pooled && !straggler {
			opt.Parallelism = 1
		}
		for i, pr := range net.ReachAll(points, space, opt) {
			idx := sweep[i]
			reaches := false
			var lens []int
			for _, r := range pr.Results {
				if r.Looped {
					continue
				}
				if r.EgressNode == headerspace.NodeID(sub.Anchor.Switch) && r.EgressPort == headerspace.PortID(sub.Anchor.Port) {
					reaches = true
					lens = append(lens, len(r.Path))
				}
			}
			cache.cones[idx] = isoCone{fp: pr.Footprint, reaches: reaches, lens: lens}
		}
		cache.primed = true
	}

	fp := headerspace.NewFootprint()
	var found []discoveredEndpoint
	for i := range cache.cones {
		cone := &cache.cones[i]
		fp.Union(cone.fp)
		if !cone.reaches {
			continue
		}
		de := discoveredEndpoint{ep: cache.eps[i], pathLens: cone.lens}
		if ap, ok := c.topo.AccessPointAt(cache.eps[i]); ok {
			de.ap = ap
			de.known = true
		}
		found = append(found, de)
	}
	sortEndpoints(found)
	violated, detail := isolationVerdict(found, sub.ClientID)
	// The subscriber's own switch is consulted implicitly (traffic must
	// arrive there to reach the card); keep it in the footprint so local
	// reconfigurations always re-run the invariant.
	fp.Add(headerspace.NodeID(sub.Anchor.Switch))
	v.Violated, v.Detail, v.FP = violated, detail, fp
	return v
}
