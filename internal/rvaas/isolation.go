package rvaas

import (
	"repro/internal/headerspace"
	"repro/internal/topology"
	"repro/internal/verifier"
)

// Isolation invariants ("which sources can reach my network card?") are
// the most expensive standing invariants: one evaluation injects the
// scoped space at EVERY edge port of the network and traverses each
// injection independently. A single-switch change can only alter the
// traversals whose own cone crosses that switch carrying headers the
// change touches.
//
// Each injection point is one traversal of the invariant: the verifier
// indexes the point's visited cone (headerspace.Footprint) on its own and
// names, per pass, the cones a delta can affect. The cone cache keeps each
// point's outcome (does it reach the subscriber, and over which path
// lengths). A re-run sweeps only the named points; every other point's
// cached outcome is provably still valid, because its traversal consulted
// no changed transfer function on a header it carried.

// isoCone is one injection point's cached traversal outcome.
type isoCone struct {
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
// traversed; otherwise exactly the points in dirty re-run — the cones whose
// slice at some dispatched switch overlaps that switch's rule delta (a cone
// that merely passes through a dirty hub is not named when the changed
// rules touch none of the headers it carried there) — and the rest keep
// their cached outcome. The verdict is re-derived from every cone's outcome
// either way, so it is byte-identical to a full sweep's and switching
// between the paths can never manufacture a verdict transition. Only the
// re-run cones' footprints are returned.
func (c *Controller) evaluateIsolation(net *headerspace.Network, sub *verifier.Subscription, dirty []int, fullSweep, pooled bool) verifier.Verdict {
	cache, _ := sub.Cones.(*isoConeCache)
	if cache == nil {
		// First evaluation (the engine asks for a full sweep then anyway).
		cache = c.newIsoConeCache(reqOf(sub))
		sub.Cones = cache
		fullSweep = true
	}

	sweep := dirty
	if fullSweep {
		sweep = make([]int, len(cache.points))
		for i := range sweep {
			sweep[i] = i
		}
	}
	v := verifier.Verdict{
		IsoPointsSwept:  uint64(len(sweep)),
		IsoPointsReused: uint64(len(cache.points) - len(sweep)),
		Ran:             make([]verifier.TraversalFootprint, 0, len(sweep)),
	}

	if len(sweep) > 0 {
		points := make([]headerspace.InjectionPoint, len(sweep))
		for i, idx := range sweep {
			points[i] = cache.points[idx]
		}
		// Inside a multi-worker pass the pool already provides the
		// fan-out: nesting ReachAll's own workers per invariant would
		// oversubscribe the cores (a force pass over N isolation
		// invariants would run ~P² traversal goroutines on P cores), so a
		// pooled sweep is sequential. Outside the pool (registration,
		// single-worker passes) ReachAll parallelizes.
		opt := headerspace.ReachOptions{RecordFootprint: true}
		if pooled {
			opt.Parallelism = 1
		}
		for i, pr := range net.ReachAll(points, scopeSpace(sub.Constraints), opt) {
			idx := sweep[i]
			cone := isoCone{}
			for _, r := range pr.Results {
				if r.Looped {
					continue
				}
				if r.EgressNode == headerspace.NodeID(sub.Anchor.Switch) && r.EgressPort == headerspace.PortID(sub.Anchor.Port) {
					cone.reaches = true
					cone.lens = append(cone.lens, len(r.Path))
				}
			}
			cache.cones[idx] = cone
			v.Ran = append(v.Ran, verifier.TraversalFootprint{Index: idx, FP: pr.Footprint})
		}
	}

	var found []discoveredEndpoint
	for i := range cache.cones {
		cone := &cache.cones[i]
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
	v.Violated, v.Detail = isolationVerdict(found, sub.ClientID)
	return v
}
