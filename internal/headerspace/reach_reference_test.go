package headerspace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// reachReference is the original recursive reachability engine, kept as
// an executable specification. The production engine in
// reach.go is an explicit-stack rewrite with structurally-shared branch
// state; TestDifferentialReach proves the two compute identical egress sets
// and loop verdicts on randomized networks.
func reachReference(n *Network, at NodeID, port PortID, in Space, opt ReachOptions) []ReachResult {
	maxHops := max(4*len(n.nodes), 16)
	var results []ReachResult
	type visitKey struct {
		node NodeID
		port PortID
	}
	type reachState struct {
		node   NodeID
		inPort PortID
		space  Space
		path   []NodeID
	}
	clonePath := func(p []NodeID) []NodeID {
		out := make([]NodeID, len(p))
		copy(out, p)
		return out
	}

	var walk func(st reachState, seen map[visitKey][]Space)
	walk = func(st reachState, seen map[visitKey][]Space) {
		if len(st.path) >= maxHops {
			if opt.KeepLoops {
				results = append(results, ReachResult{
					EgressNode: st.node, EgressPort: st.inPort,
					Space: st.space, Path: clonePath(st.path), Looped: true,
				})
			}
			return
		}
		vk := visitKey{st.node, st.inPort}
		for _, prev := range seen[vk] {
			if prev.Covers(st.space) {
				if opt.KeepLoops {
					results = append(results, ReachResult{
						EgressNode: st.node, EgressPort: st.inPort,
						Space: st.space, Path: clonePath(st.path), Looped: true,
					})
				}
				return
			}
		}
		tf := n.nodes[st.node]
		if tf == nil {
			return
		}
		newSeen := make(map[visitKey][]Space, len(seen)+1)
		for k, v := range seen {
			newSeen[k] = v
		}
		newSeen[vk] = append(append([]Space(nil), seen[vk]...), st.space)

		for _, em := range tf.Apply(st.space, st.inPort) {
			nextPath := append(clonePath(st.path), st.node)
			if peerNode, peerPort, wired := n.Peer(st.node, em.Port); wired {
				walk(reachState{node: peerNode, inPort: peerPort, space: em.Space, path: nextPath}, newSeen)
			} else {
				results = append(results, ReachResult{
					EgressNode: st.node, EgressPort: em.Port,
					Space: em.Space, Path: nextPath,
				})
			}
		}
	}

	walk(reachState{node: at, inPort: port, space: in.Clone()}, map[visitKey][]Space{})
	return results
}

// randNetwork draws a random network: 2–5 nodes, 1–4 rules each (some with
// rewrites), random wiring over ports 1–4 (loops very much included).
func randNetwork(rr *rand.Rand, width int) *Network {
	n := 2 + rr.Intn(4)
	net := NewNetwork(width)
	for id := 1; id <= n; id++ {
		tf := NewTransferFunction(width)
		rules := 1 + rr.Intn(4)
		for r := 0; r < rules; r++ {
			rule := Rule{
				Priority: rr.Intn(8),
				Match:    randHeader(rr, width),
				OutPorts: []PortID{PortID(1 + rr.Intn(4))},
			}
			if rr.Intn(4) == 0 { // occasionally emit on two ports
				rule.OutPorts = append(rule.OutPorts, PortID(1+rr.Intn(4)))
			}
			if rr.Intn(3) == 0 { // occasionally rewrite a few bits
				mask := Filled(width, Bit0)
				value := AllX(width)
				for b := 0; b < width; b++ {
					if rr.Intn(6) == 0 {
						mask.setBitInPlace(b, Bit1)
						if rr.Intn(2) == 0 {
							value.setBitInPlace(b, Bit1)
						} else {
							value.setBitInPlace(b, Bit0)
						}
					}
				}
				rule.Mask, rule.Value = mask, value
			}
			if err := tf.AddRule(rule); err != nil {
				panic(err)
			}
		}
		if err := net.AddNode(NodeID(id), tf); err != nil {
			panic(err)
		}
	}
	// Random wiring: each (node, port) has a 40% chance of an outgoing wire
	// to a random (node, port) — self-links and cycles allowed.
	for id := 1; id <= n; id++ {
		for p := 1; p <= 4; p++ {
			if rr.Intn(5) < 2 {
				net.AddLink(Link{
					FromNode: NodeID(id), FromPort: PortID(p),
					ToNode: NodeID(1 + rr.Intn(n)), ToPort: PortID(1 + rr.Intn(4)),
				})
			}
		}
	}
	return net
}

func egressSetsEqual(a, b map[NodeID]map[PortID]Space) bool {
	if len(a) != len(b) {
		return false
	}
	for node, aports := range a {
		bports, ok := b[node]
		if !ok || len(aports) != len(bports) {
			return false
		}
		for port, as := range aports {
			bs, ok := bports[port]
			if !ok || !as.Equal(bs) {
				return false
			}
		}
	}
	return true
}

func hasLoop(results []ReachResult) bool {
	for _, r := range results {
		if r.Looped {
			return true
		}
	}
	return false
}

// TestDifferentialReach runs the frontier engine against the recursive
// reference on randomized topologies and spaces: identical egress sets and
// identical loop verdicts, with and without KeepLoops.
func TestDifferentialReach(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		net := randNetwork(rr, quickWidth)
		in := NewSpace(quickWidth, randHeader(rr, quickWidth), randHeader(rr, quickWidth))
		at := NodeID(1 + rr.Intn(len(net.nodes)))
		port := PortID(1 + rr.Intn(4))
		for _, keep := range []bool{false, true} {
			opt := ReachOptions{KeepLoops: keep}
			got := net.Reach(at, port, in, opt)
			want := reachReference(net, at, port, in, opt)
			if !egressSetsEqual(EgressSet(got), EgressSet(want)) {
				t.Logf("seed %d keep=%v: egress sets differ (%d vs %d results)", seed, keep, len(got), len(want))
				return false
			}
			if keep && hasLoop(got) != hasLoop(want) {
				t.Logf("seed %d: loop verdicts differ: got %v want %v", seed, hasLoop(got), hasLoop(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDifferentialReachResultOrder pins the frontier engine to the exact
// result slice the reference produces — same order, egress coordinates,
// spaces, paths and loop flags — on fully random networks (loops included).
// Both engines walk emissions depth-first in rule order, so their outputs
// must be identical element-wise.
func TestDifferentialReachResultOrder(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		net := randNetwork(rr, quickWidth)
		in := NewSpace(quickWidth, randHeader(rr, quickWidth))
		at := NodeID(1 + rr.Intn(len(net.nodes)))
		port := PortID(1 + rr.Intn(4))
		for _, keep := range []bool{false, true} {
			got := net.Reach(at, port, in, ReachOptions{KeepLoops: keep})
			want := reachReference(net, at, port, in, ReachOptions{KeepLoops: keep})
			if len(got) != len(want) {
				t.Logf("seed %d keep=%v: %d results vs %d", seed, keep, len(got), len(want))
				return false
			}
			for i := range got {
				if got[i].EgressNode != want[i].EgressNode || got[i].EgressPort != want[i].EgressPort ||
					got[i].Looped != want[i].Looped {
					return false
				}
				if !got[i].Space.Equal(want[i].Space) {
					return false
				}
				if len(got[i].Path) != len(want[i].Path) {
					return false
				}
				for j := range got[i].Path {
					if got[i].Path[j] != want[i].Path[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
