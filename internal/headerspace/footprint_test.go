package headerspace

import "testing"

// TestFootprintLine checks the footprint of a straight-line traversal covers
// exactly the consulted chain.
func TestFootprintLine(t *testing.T) {
	net := lineNetwork(t, 4, 8)
	res, fp := net.ReachFootprint(1, 1, FullSpace(8), ReachOptions{})
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	want := []NodeID{1, 2, 3, 4}
	got := fp.Nodes()
	if len(got) != len(want) {
		t.Fatalf("footprint = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("footprint = %v, want %v", got, want)
		}
	}
}

// TestFootprintIncludesDropNodes checks that a node where the space dies
// (no matching rule) still enters the footprint: a change there could
// revive the branch, so it must invalidate the evaluation.
func TestFootprintIncludesDropNodes(t *testing.T) {
	width := 8
	net := NewNetwork(width)
	fwd := NewTransferFunction(width)
	mustAdd(t, fwd, Rule{Priority: 1, Match: AllX(width), OutPorts: []PortID{2}})
	if err := net.AddNode(1, fwd); err != nil {
		t.Fatal(err)
	}
	// Node 2 has no rules: everything arriving there is dropped.
	if err := net.AddNode(2, NewTransferFunction(width)); err != nil {
		t.Fatal(err)
	}
	net.AddLink(Link{1, 2, 2, 1})

	res, fp := net.ReachFootprint(1, 1, FullSpace(width), ReachOptions{})
	if len(res) != 0 {
		t.Fatalf("results = %v, want none (dropped)", res)
	}
	if !fp.Contains(2) {
		t.Errorf("footprint %v misses the dropping node 2", fp.Nodes())
	}
}

// TestFootprintInvalidated: with unconstrained entries and unconstrained
// deltas, invalidation is plain node membership.
func TestFootprintInvalidated(t *testing.T) {
	changed := func(ids ...NodeID) map[NodeID]Delta {
		m := make(map[NodeID]Delta)
		for _, id := range ids {
			m[id] = Delta{Space: FullSpace(8)}
		}
		return m
	}
	fp := NewFootprint()
	fp.Add(3)
	fp.Add(7)
	if fp.InvalidatedBy(changed(1, 2, 4)) {
		t.Error("disjoint dirty set must not invalidate")
	}
	if !fp.InvalidatedBy(changed(5, 7)) {
		t.Error("dirty node inside the footprint must invalidate")
	}
	var nilFp Footprint
	if !nilFp.InvalidatedBy(nil) {
		t.Error("nil footprint (never evaluated) must always be invalidated")
	}
}

// TestFootprintSlices checks that traversal footprints record the
// header-space slice presented at each node, and that the delta overlap
// predicates use it: a delta disjoint from a node's slice does not
// invalidate, a delta overlapping it does, and unconstrained entries
// (plain Add) conservatively overlap everything.
func TestFootprintSlices(t *testing.T) {
	width := 8
	net := NewNetwork(width)
	tf := NewTransferFunction(width)
	// Forward only headers with bit 0 == 1.
	match := AllX(width).SetBit(0, Bit1)
	mustAdd(t, tf, Rule{Priority: 1, Match: match, OutPorts: []PortID{2}})
	if err := net.AddNode(1, tf); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(2, NewTransferFunction(width)); err != nil {
		t.Fatal(err)
	}
	net.AddLink(Link{1, 2, 2, 1})

	in := NewSpace(width, AllX(width).SetBit(1, Bit1))
	_, fp := net.ReachFootprint(1, 1, in, ReachOptions{})
	// Node 1 saw the injected slice; node 2 only the bit0=1 half of it.
	sl1, ok := fp.SliceAt(1)
	if !ok || !sl1.Covers(in) {
		t.Fatalf("slice at 1 = %v, want to cover %v", sl1, in)
	}
	sl2, ok := fp.SliceAt(2)
	if !ok {
		t.Fatal("node 2 missing from footprint")
	}
	bit0zero := NewSpace(width, AllX(width).SetBit(0, Bit0))
	if sl2.Overlaps(bit0zero) {
		t.Errorf("slice at 2 = %v includes headers the traversal never presented", sl2)
	}

	// Delta disjoint from node 2's slice (bit1=0 traffic) must not
	// invalidate; a delta inside it must.
	disjoint := NewSpace(width, AllX(width).SetBit(1, Bit0))
	if fp.OverlapsAt(2, disjoint) {
		t.Error("disjoint delta overlaps node 2's slice")
	}
	if fp.InvalidatedBy(map[NodeID]Delta{2: {Space: disjoint}}) {
		t.Error("disjoint delta invalidated the footprint")
	}
	hit := NewSpace(width, AllX(width).SetBit(0, Bit1).SetBit(1, Bit1))
	if !fp.InvalidatedBy(map[NodeID]Delta{2: {Space: hit}}) {
		t.Error("overlapping delta did not invalidate the footprint")
	}
	// Deltas at unvisited nodes never invalidate.
	if fp.InvalidatedBy(map[NodeID]Delta{9: {Space: FullSpace(width)}}) {
		t.Error("delta at unvisited node invalidated the footprint")
	}

	// Unconstrained entries (Add without slice) overlap everything.
	fp.Add(7)
	if !fp.OverlapsAt(7, disjoint) {
		t.Error("unconstrained entry must overlap every delta")
	}
}

// TestFootprintSliceCap checks the per-node term cap collapses to the full
// space (conservative) instead of growing without bound.
func TestFootprintSliceCap(t *testing.T) {
	width := 8
	fp := NewFootprint()
	for i := 0; i < footprintTermCap+8; i++ {
		h := AllX(width)
		for b := 0; b < 5; b++ {
			bit := Bit0
			if i>>b&1 == 1 {
				bit = Bit1
			}
			h = h.SetBit(b, bit)
		}
		fp.AddSlice(3, NewSpace(width, h))
	}
	sl, ok := fp.SliceAt(3)
	if !ok {
		t.Fatal("node missing")
	}
	if sl.Size() > footprintTermCap {
		t.Fatalf("slice terms = %d, cap = %d", sl.Size(), footprintTermCap)
	}
	// Post-collapse the slice must still cover everything accumulated.
	if !fp.OverlapsAt(3, NewSpace(width, AllX(width).SetBit(0, Bit0))) {
		t.Error("collapsed slice lost coverage")
	}
}

// TestFootprintUnionSlices checks Union merges per-node slices and keeps
// unconstrained entries unconstrained.
func TestFootprintUnionSlices(t *testing.T) {
	width := 8
	a, b := NewFootprint(), NewFootprint()
	h0 := AllX(width).SetBit(0, Bit0)
	h1 := AllX(width).SetBit(0, Bit1)
	a.AddSlice(1, NewSpace(width, h0))
	b.AddSlice(1, NewSpace(width, h1))
	b.AddSlice(2, NewSpace(width, h1))
	a.Add(3)
	b.AddSlice(3, NewSpace(width, h1))
	a.Union(b)
	if !a.OverlapsAt(1, NewSpace(width, h1)) || !a.OverlapsAt(1, NewSpace(width, h0)) {
		t.Error("union lost one side's slice at node 1")
	}
	if !a.Contains(2) {
		t.Error("union missed node 2")
	}
	if !a.OverlapsAt(3, NewSpace(width, h0)) {
		t.Error("unconstrained entry must stay unconstrained after union")
	}
}

// TestReachAllFootprints checks per-point footprints from the parallel
// sweep are captured independently.
func TestReachAllFootprints(t *testing.T) {
	net := lineNetwork(t, 4, 8)
	points := []InjectionPoint{{Node: 1, Port: 1}, {Node: 3, Port: 1}}
	for _, workers := range []int{1, 2} {
		prs := net.ReachAll(points, FullSpace(8), ReachOptions{RecordFootprint: true, Parallelism: workers})
		if len(prs) != 2 {
			t.Fatalf("workers=%d: point results = %d", workers, len(prs))
		}
		if got := prs[0].Footprint.Nodes(); len(got) != 4 {
			t.Errorf("workers=%d: footprint from node 1 = %v, want 1..4", workers, got)
		}
		if got := prs[1].Footprint.Nodes(); len(got) != 2 || got[0] != 3 || got[1] != 4 {
			t.Errorf("workers=%d: footprint from node 3 = %v, want [3 4]", workers, got)
		}
	}
	// Without RecordFootprint no footprints are allocated.
	prs := net.ReachAll(points, FullSpace(8), ReachOptions{})
	if prs[0].Footprint.Recorded() || prs[1].Footprint.Recorded() {
		t.Error("footprints recorded without RecordFootprint")
	}
}

// TestFootprintPorts checks the traversal records arrival in-ports and
// that port-confined deltas only invalidate evaluations whose traffic
// actually entered the changed switch on a restricted port.
func TestFootprintPorts(t *testing.T) {
	net := lineNetwork(t, 3, 8)
	_, fp := net.ReachFootprint(1, 1, FullSpace(8), ReachOptions{})
	// The line wires node n port 2 -> node n+1 port 1: node 2 is entered
	// on port 1 only.
	ports, constrained := fp.PortsAt(2)
	if !constrained || len(ports) != 1 || ports[0] != 1 {
		t.Fatalf("ports at node 2 = %v (constrained=%v), want [1]", ports, constrained)
	}

	full := FullSpace(8)
	// A delta confined to an in-port the traversal never used cannot
	// affect the evaluation, even though its space overlaps the slice.
	if fp.InvalidatedBy(map[NodeID]Delta{2: {Space: full, Ports: []PortID{7}}}) {
		t.Error("delta on an unused in-port invalidated the footprint")
	}
	// The same delta on the arrival port must invalidate.
	if !fp.InvalidatedBy(map[NodeID]Delta{2: {Space: full, Ports: []PortID{1}}}) {
		t.Error("delta on the arrival port did not invalidate")
	}
	// An unrestricted delta must invalidate regardless of ports.
	if !fp.InvalidatedBy(map[NodeID]Delta{2: {Space: full}}) {
		t.Error("any-port delta did not invalidate")
	}

	// Unconstrained entries (Add / AddSlice) match every port restriction.
	fp2 := NewFootprint()
	fp2.AddSlice(2, full)
	if !fp2.AffectedBy(2, Delta{Space: full, Ports: []PortID{7}}) {
		t.Error("port-unconstrained entry must match any port-restricted delta")
	}

	// Port sets collapse to any-port past the cap.
	fp3 := NewFootprint()
	for p := PortID(1); p <= footprintPortCap+2; p++ {
		fp3.AddSliceAt(5, full, p)
	}
	if _, constrained := fp3.PortsAt(5); constrained {
		t.Error("port set did not collapse to any-port past the cap")
	}

	// Union: merging an any-port side widens the entry.
	a, b := NewFootprint(), NewFootprint()
	a.AddSliceAt(4, full, 1)
	b.AddSlice(4, full)
	a.Union(b)
	if _, constrained := a.PortsAt(4); constrained {
		t.Error("union with an any-port entry must widen to any-port")
	}
	// Union of two constrained sides merges the sets.
	c, d := NewFootprint(), NewFootprint()
	c.AddSliceAt(4, full, 1)
	d.AddSliceAt(4, full, 2)
	c.Union(d)
	ports, constrained = c.PortsAt(4)
	if !constrained || len(ports) != 2 {
		t.Errorf("union of constrained port sets = %v (constrained=%v), want both ports", ports, constrained)
	}
}
