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
	v1, ok := fp.VisitAt(1)
	if !ok || !v1.Slice.Covers(in) {
		t.Fatalf("slice at 1 = %v, want to cover %v", v1.Slice, in)
	}
	v2, ok := fp.VisitAt(2)
	if !ok {
		t.Fatal("node 2 missing from footprint")
	}
	bit0zero := NewSpace(width, AllX(width).SetBit(0, Bit0))
	if v2.Slice.Overlaps(bit0zero) {
		t.Errorf("slice at 2 = %v includes headers the traversal never presented", v2.Slice)
	}

	// Delta disjoint from node 2's slice (bit1=0 traffic) must not
	// invalidate; a delta inside it must.
	disjoint := NewSpace(width, AllX(width).SetBit(1, Bit0))
	if fp.AffectedBy(2, Delta{Space: disjoint}) {
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
	if !fp.AffectedBy(7, Delta{Space: disjoint}) {
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
	v, ok := fp.VisitAt(3)
	if !ok {
		t.Fatal("node missing")
	}
	if v.Slice.Size() > footprintTermCap {
		t.Fatalf("slice terms = %d, cap = %d", v.Slice.Size(), footprintTermCap)
	}
	// Post-collapse the slice must still cover everything accumulated.
	if !fp.AffectedBy(3, Delta{Space: NewSpace(width, AllX(width).SetBit(0, Bit0))}) {
		t.Error("collapsed slice lost coverage")
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
	v, _ := fp.VisitAt(2)
	if v.AnyPort || len(v.Ports) != 1 || v.Ports[0] != 1 {
		t.Fatalf("ports at node 2 = %v (any=%v), want [1]", v.Ports, v.AnyPort)
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
	if v, _ := fp3.VisitAt(5); !v.AnyPort {
		t.Error("port set did not collapse to any-port past the cap")
	}
}

// TestVisitKey checks the identity an index groups traversals under: equal
// visits share a key, and anything AffectedBy can tell apart — another
// slice, another port set, any-port against a listed port — does not.
func TestVisitKey(t *testing.T) {
	width := 8
	h0 := NewSpace(width, AllX(width).SetBit(0, Bit0))
	h1 := NewSpace(width, AllX(width).SetBit(0, Bit1))
	visit := func(record func(Footprint)) Visit {
		fp := NewFootprint()
		record(fp)
		v, ok := fp.VisitAt(1)
		if !ok {
			t.Fatal("node 1 not recorded")
		}
		return v
	}
	key := func(v Visit) string { return string(v.AppendKey(nil)) }

	base := visit(func(fp Footprint) { fp.AddSliceAt(1, h0, 2) })
	same := visit(func(fp Footprint) { fp.AddSliceAt(1, h0.Clone(), 2) })
	if key(base) != key(same) {
		t.Error("equal visits recorded separately got different keys")
	}
	distinct := map[string]Visit{
		"other slice":   visit(func(fp Footprint) { fp.AddSliceAt(1, h1, 2) }),
		"other port":    visit(func(fp Footprint) { fp.AddSliceAt(1, h0, 3) }),
		"any port":      visit(func(fp Footprint) { fp.AddSlice(1, h0) }),
		"unconstrained": visit(func(fp Footprint) { fp.Add(1) }),
		"two terms":     visit(func(fp Footprint) { fp.AddSliceAt(1, h0, 2); fp.AddSliceAt(1, h1, 2) }),
		"two ports":     visit(func(fp Footprint) { fp.AddSliceAt(1, h0, 2); fp.AddSliceAt(1, h0, 3) }),
	}
	seen := map[string]string{key(base): "base"}
	for name, v := range distinct {
		k := key(v)
		if other, dup := seen[k]; dup {
			t.Errorf("%s shares a key with %s", name, other)
		}
		seen[k] = name
	}
	// The unconstrained visit is the class whose test always passes.
	if !distinct["unconstrained"].AffectedBy(Delta{Space: h1, Ports: []PortID{9}}) {
		t.Error("unconstrained visit must be affected by every delta")
	}
	if base.AffectedBy(Delta{Space: h1}) || base.AffectedBy(Delta{Space: h0, Ports: []PortID{3}}) {
		t.Error("visit affected by a delta off its slice or off its port")
	}
}
