package headerspace

import "testing"

// lineNetwork builds a chain s1 -> s2 -> ... -> sn where each switch
// forwards everything from port 1 (left) to port 2 (right). Port 1 of s1 and
// port 2 of sn are edge ports.
func lineNetwork(t *testing.T, n, width int) *Network {
	t.Helper()
	net := NewNetwork(width)
	for i := 1; i <= n; i++ {
		tf := NewTransferFunction(width)
		if err := tf.AddRule(Rule{Priority: 1, Match: AllX(width), InPorts: []PortID{1}, OutPorts: []PortID{2}}); err != nil {
			t.Fatal(err)
		}
		if err := net.AddNode(NodeID(i), tf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		net.AddLink(Link{NodeID(i), 2, NodeID(i + 1), 1})
	}
	return net
}

func TestReachLine(t *testing.T) {
	net := lineNetwork(t, 4, 8)
	res := net.Reach(1, 1, FullSpace(8), ReachOptions{})
	if len(res) != 1 {
		t.Fatalf("results = %d, want 1", len(res))
	}
	r := res[0]
	if r.EgressNode != 4 || r.EgressPort != 2 {
		t.Errorf("egress = (%d,%d), want (4,2)", r.EgressNode, r.EgressPort)
	}
	if len(r.Path) != 4 {
		t.Errorf("path hops = %d, want 4", len(r.Path))
	}
	if !r.Space.Equal(FullSpace(8)) {
		t.Errorf("space transformed unexpectedly: %s", r.Space)
	}
}

func TestReachBranching(t *testing.T) {
	// s1 splits: 1xxxxxxx to port 2 (-> s2), 0xxxxxxx to port 3 (-> s3).
	width := 8
	net := NewNetwork(width)
	s1 := NewTransferFunction(width)
	mustAdd(t, s1, Rule{Priority: 1, Match: MustParse("1xxxxxxx"), OutPorts: []PortID{2}})
	mustAdd(t, s1, Rule{Priority: 1, Match: MustParse("0xxxxxxx"), OutPorts: []PortID{3}})
	fwd := func() *TransferFunction {
		tf := NewTransferFunction(width)
		mustAdd(t, tf, Rule{Priority: 1, Match: AllX(width), OutPorts: []PortID{2}})
		return tf
	}
	if err := net.AddNode(1, s1); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(2, fwd()); err != nil {
		t.Fatal(err)
	}
	if err := net.AddNode(3, fwd()); err != nil {
		t.Fatal(err)
	}
	net.AddLink(Link{1, 2, 2, 1})
	net.AddLink(Link{1, 3, 3, 1})

	res := net.Reach(1, 1, FullSpace(width), ReachOptions{})
	eg := EgressSet(res)
	if len(eg) != 2 {
		t.Fatalf("egress nodes = %d, want 2", len(eg))
	}
	if s, ok := eg[2][2]; !ok || !s.Equal(sp("1xxxxxxx")) {
		t.Errorf("node2 egress = %v", eg[2])
	}
	if s, ok := eg[3][2]; !ok || !s.Equal(sp("0xxxxxxx")) {
		t.Errorf("node3 egress = %v", eg[3])
	}
}

func TestReachRewriteAlongPath(t *testing.T) {
	width := 4
	net := NewNetwork(width)
	tf := NewTransferFunction(width)
	// Rewrite low 2 bits to 01 and forward.
	mustAdd(t, tf, Rule{
		Priority: 1, Match: AllX(width),
		Mask: MustParse("0011"), Value: MustParse("xx01"),
		OutPorts: []PortID{2},
	})
	if err := net.AddNode(1, tf); err != nil {
		t.Fatal(err)
	}
	res := net.Reach(1, 1, sp("1x1x"), ReachOptions{})
	if len(res) != 1 || !res[0].Space.Equal(sp("1x01")) {
		t.Fatalf("rewrite lost: %+v", res)
	}
}

func TestReachLoopDetection(t *testing.T) {
	// Two switches forwarding everything to each other: pure loop.
	width := 4
	net := NewNetwork(width)
	for i := 1; i <= 2; i++ {
		tf := NewTransferFunction(width)
		mustAdd(t, tf, Rule{Priority: 1, Match: AllX(width), InPorts: []PortID{1}, OutPorts: []PortID{2}})
		if err := net.AddNode(NodeID(i), tf); err != nil {
			t.Fatal(err)
		}
	}
	net.AddLink(Link{1, 2, 2, 1})
	net.AddLink(Link{2, 2, 1, 1})

	res := net.Reach(1, 1, FullSpace(width), ReachOptions{})
	if len(res) != 0 {
		t.Errorf("loop produced egress results: %+v", res)
	}
	looped := false
	for _, r := range net.Reach(1, 1, FullSpace(width), ReachOptions{KeepLoops: true}) {
		looped = looped || r.Looped
	}
	if !looped {
		t.Error("KeepLoops kept no looped branch")
	}
}

func TestReachDropsUnmatched(t *testing.T) {
	width := 2
	net := NewNetwork(width)
	tf := NewTransferFunction(width)
	mustAdd(t, tf, Rule{Priority: 1, Match: MustParse("11"), OutPorts: []PortID{2}})
	if err := net.AddNode(1, tf); err != nil {
		t.Fatal(err)
	}
	res := net.Reach(1, 1, sp("00"), ReachOptions{})
	if len(res) != 0 {
		t.Errorf("unmatched space should be dropped, got %+v", res)
	}
}

func TestTraversedNodes(t *testing.T) {
	net := lineNetwork(t, 3, 4)
	res := net.Reach(1, 1, FullSpace(4), ReachOptions{})
	nodes := TraversedNodes(res)
	if len(nodes) != 3 || nodes[0] != 1 || nodes[2] != 3 {
		t.Errorf("traversed = %v", nodes)
	}
}

func TestReachAllMatchesSerial(t *testing.T) {
	net := lineNetwork(t, 6, 8)
	var points []InjectionPoint
	for i := 1; i <= 6; i++ {
		points = append(points, InjectionPoint{NodeID(i), 1}, InjectionPoint{NodeID(i), 2})
	}
	in := FullSpace(8)
	serial := net.ReachAll(points, in, ReachOptions{Parallelism: 1})
	for _, par := range []int{2, 4, 16} {
		got := net.ReachAll(points, in, ReachOptions{Parallelism: par})
		if len(got) != len(serial) {
			t.Fatalf("parallelism %d: %d point results, want %d", par, len(got), len(serial))
		}
		for i := range got {
			if len(got[i].Results) != len(serial[i].Results) {
				t.Fatalf("parallelism %d: point %v result count %d vs %d",
					par, points[i], len(got[i].Results), len(serial[i].Results))
			}
			for j := range got[i].Results {
				if !got[i].Results[j].Space.Equal(serial[i].Results[j].Space) {
					t.Errorf("parallelism %d: point %v result %d space differs", par, points[i], j)
				}
			}
		}
	}
}

// TestEgressSetOwnership is the regression test for aggregate aliasing: the
// spaces stored in an EgressSet must not share term storage with the reach
// results they were built from, on either the first-insert (Clone) path or
// the union path — otherwise a caller mutating the aggregate would corrupt
// the results (and vice versa).
func TestEgressSetOwnership(t *testing.T) {
	width := 8
	results := []ReachResult{
		{EgressNode: 1, EgressPort: 2, Space: sp("1100xxxx")},
		{EgressNode: 1, EgressPort: 2, Space: sp("0011xxxx")}, // union path
		{EgressNode: 3, EgressPort: 1, Space: sp("1111xxxx")}, // clone path
	}
	agg := EgressSet(results)
	snapshotBefore := make([]string, len(results))
	for i, r := range results {
		snapshotBefore[i] = r.Space.String()
	}
	// Mutate every term of every aggregated space in place.
	for _, ports := range agg {
		for _, s := range ports {
			for i := range s.terms {
				for b := 0; b < width; b++ {
					s.terms[i].setBitInPlace(b, Bit0)
				}
			}
		}
	}
	for i, r := range results {
		if got := r.Space.String(); got != snapshotBefore[i] {
			t.Errorf("result %d mutated through aggregate: %s != %s", i, got, snapshotBefore[i])
		}
	}
	// And the reverse direction: rebuilding and mutating the results must
	// not change a previously computed aggregate.
	agg = EgressSet(results)
	before := agg[1][2].String()
	for _, r := range results {
		for i := range r.Space.terms {
			for b := 0; b < width; b++ {
				r.Space.terms[i].setBitInPlace(b, Bit1)
			}
		}
	}
	if got := agg[1][2].String(); got != before {
		t.Errorf("aggregate mutated through results: %s != %s", got, before)
	}
}

func TestIsEdgePort(t *testing.T) {
	net := lineNetwork(t, 2, 4)
	if _, _, wired := net.Peer(1, 2); !wired {
		t.Error("(1,2) is wired, not edge")
	}
	if _, _, wired := net.Peer(2, 2); wired {
		t.Error("(2,2) should be edge")
	}
}

func TestAddNodeWidthMismatch(t *testing.T) {
	net := NewNetwork(4)
	if err := net.AddNode(1, NewTransferFunction(8)); err == nil {
		t.Error("want width mismatch error")
	}
}
