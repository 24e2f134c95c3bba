package headerspace

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
)

// NodeID identifies a box (switch) in the reachability network.
type NodeID uint32

// Link is a unidirectional wire from one node's port to another's.
// Bidirectional links are modelled as two Links.
type Link struct {
	FromNode NodeID
	FromPort PortID
	ToNode   NodeID
	ToPort   PortID
}

// Network is the static model reachability runs on: one transfer function
// per node plus the wiring. Ports not connected by any link are edge
// (access) ports.
//
// A Network is safe for concurrent readers (Reach, ReachAll, Peer, ...)
// once construction (AddNode/AddLink) is finished; the RVaaS controller
// relies on this to share one compiled network across parallel queries.
type Network struct {
	width int
	nodes map[NodeID]*TransferFunction
	// wires maps (node, outPort) to the far end.
	wires map[nodePort]nodePort
}

type nodePort struct {
	node NodeID
	port PortID
}

// NewNetwork returns an empty network for the given header width.
func NewNetwork(width int) *Network {
	return &Network{
		width: width,
		nodes: make(map[NodeID]*TransferFunction),
		wires: make(map[nodePort]nodePort),
	}
}

// AddNode registers a node with its transfer function. Re-adding replaces.
func (n *Network) AddNode(id NodeID, tf *TransferFunction) error {
	if tf.Width() != n.width {
		return fmt.Errorf("headerspace: node %d width %d != network width %d", id, tf.Width(), n.width)
	}
	n.nodes[id] = tf
	return nil
}

// Node returns the transfer function for id, or nil.
func (n *Network) Node(id NodeID) *TransferFunction { return n.nodes[id] }

// AddLink wires from → to (unidirectional).
func (n *Network) AddLink(l Link) {
	n.wires[nodePort{l.FromNode, l.FromPort}] = nodePort{l.ToNode, l.ToPort}
}

// AddDuplex wires both directions between (a, ap) and (b, bp).
func (n *Network) AddDuplex(a NodeID, ap PortID, b NodeID, bp PortID) {
	n.AddLink(Link{a, ap, b, bp})
	n.AddLink(Link{b, bp, a, ap})
}

// Peer returns the far end of (node, port) and whether it is wired.
func (n *Network) Peer(node NodeID, port PortID) (NodeID, PortID, bool) {
	np, ok := n.wires[nodePort{node, port}]
	return np.node, np.port, ok
}

// ReachResult is one place a header space can escape the network.
type ReachResult struct {
	// EgressNode/EgressPort is the edge port the space leaves on.
	EgressNode NodeID
	EgressPort PortID
	// Space is the set of packets (as transformed along the way) arriving
	// at the egress.
	Space Space
	// Path is the switch-level route taken (ingress hop first).
	Path []NodeID
	// Looped marks results cut off by loop detection rather than egress.
	Looped bool
}

// ReachOptions tunes the reachability traversal.
type ReachOptions struct {
	// KeepLoops includes looped results (Looped=true) in the output.
	KeepLoops bool
	// Parallelism is the worker count ReachAll fans injection points across;
	// 0 or negative means GOMAXPROCS. A single Reach call is always
	// sequential.
	Parallelism int
	// RecordFootprint makes ReachAll capture each injection point's visited
	// cone into PointResult.Footprint. Single-point callers use
	// ReachFootprint instead.
	RecordFootprint bool
}

// Footprint is the set of nodes a reachability evaluation visited — its
// "frontier cone" — together with, per node, the header-space slice the
// traversal actually presented there. It covers every node the traversal
// consulted, including nodes where the space was dropped, looped or
// hop-bounded, not just nodes on emitted witness paths. A reach evaluation
// is a deterministic function of the wiring plus the transfer functions of
// exactly these nodes applied to exactly these arriving slices, so a
// configuration change OUTSIDE the footprint — or INSIDE it but disjoint
// from the node's recorded slice — provably cannot alter the evaluation's
// outcome. Standing invariants exploit both levels: after a change to
// switch S, only invariants whose footprint contains S need considering,
// and among those only the ones whose slice at S overlaps the change's
// header-space delta need re-running.
//
// A node mapped to an EMPTY space marks an unconstrained visit (recorded
// via Add, with no slice information): it conservatively overlaps every
// delta. Genuinely-visited nodes always carry the non-empty arriving
// space.
//
// Alongside the slice, the footprint records the in-ports the traversal
// actually arrived on at each node. Rule deltas confined to specific
// in-ports (Delta.Ports) are then filtered a third way: a change to a rule
// that only matches packets entering on port 5 cannot affect an evaluation
// whose traffic only ever reached that switch on port 2. A node present in
// slices but absent from the port map was visited with unconstrained port
// information (Add, AddSlice, or port-cap collapse) and conservatively
// matches every port-restricted delta.
type Footprint struct {
	slices  map[NodeID]Space
	inPorts map[NodeID][]PortID
}

// footprintTermCap is the per-node union-term cap; past it a footprint
// slice collapses to the full header space (conservative: every delta
// overlaps it), keeping footprint memory and overlap-test cost bounded on
// term-explosive traversals.
const footprintTermCap = 32

// footprintPortCap bounds the per-node in-port set; past it the entry
// collapses to "any port" (the map entry is dropped). Real traversals
// enter a switch on one or two ports; anything wider is hub-like and the
// port filter would not discriminate anyway.
const footprintPortCap = 8

// NewFootprint returns an empty footprint.
func NewFootprint() Footprint {
	return Footprint{
		slices:  make(map[NodeID]Space),
		inPorts: make(map[NodeID][]PortID),
	}
}

// Recorded reports whether the footprint was ever initialised (a zero
// Footprint — never evaluated — is not). ReachAll leaves PointResult
// footprints unrecorded unless RecordFootprint is set.
func (f Footprint) Recorded() bool { return f.slices != nil }

// AddSlice records a visit of id by the arriving space s with no in-port
// information: the node's port set widens to "any port". The stored terms
// are detached from s's spare capacity but alias its headers (headers are
// treated as immutable throughout the package).
func (f Footprint) AddSlice(id NodeID, s Space) {
	f.addSliceTerms(id, s)
	delete(f.inPorts, id)
}

// AddSliceAt is AddSlice plus the in-port the space arrived on. The
// traversal engine uses this form; the recorded port sets let
// port-restricted deltas skip evaluations whose traffic entered the
// changed switch elsewhere.
func (f Footprint) AddSliceAt(id NodeID, s Space, port PortID) {
	_, existed := f.slices[id]
	f.addSliceTerms(id, s)
	if !existed {
		f.inPorts[id] = []PortID{port}
		return
	}
	ps, constrained := f.inPorts[id]
	if !constrained {
		return // already widened to any port
	}
	for _, p := range ps {
		if p == port {
			return
		}
	}
	if len(ps) >= footprintPortCap {
		delete(f.inPorts, id) // collapse: any port
		return
	}
	f.inPorts[id] = append(ps, port)
}

// addSliceTerms unions s into the node's recorded slice.
func (f Footprint) addSliceTerms(id NodeID, s Space) {
	cur, ok := f.slices[id]
	if !ok {
		f.slices[id] = Space{width: s.width, terms: s.terms[:len(s.terms):len(s.terms)]}
		return
	}
	if len(cur.terms) == 0 {
		return // unconstrained already: nothing to refine
	}
	// Plain term append, no compaction: this runs once per traversal frame,
	// and Overlaps is pairwise anyway. The cap bounds degenerate growth.
	cur.terms = append(cur.terms, s.terms...)
	if len(cur.terms) > footprintTermCap {
		cur.terms = []Header{AllX(cur.width)}
	}
	f.slices[id] = cur
}

// Visit is what one traversal presented at one node: the header-space
// slice that arrived there and the in-ports it arrived on. It is the unit
// a rule delta is tested against, and its byte encoding (AppendKey) is the
// identity under which an index groups traversals that presented the same
// thing at the same node.
type Visit struct {
	// Slice is the arriving space; no terms means unconstrained (it
	// overlaps every delta).
	Slice Space
	// Ports are the arrival in-ports, meaningful only when AnyPort is
	// false.
	Ports   []PortID
	AnyPort bool
}

// VisitAt returns what the traversal presented at id and whether it
// visited id at all. The Visit aliases the footprint's storage.
func (f Footprint) VisitAt(id NodeID) (Visit, bool) {
	sl, ok := f.slices[id]
	if !ok {
		return Visit{}, false
	}
	return f.visit(id, sl), true
}

// visit pairs id's recorded slice with its recorded in-ports.
func (f Footprint) visit(id NodeID, sl Space) Visit {
	ps, constrained := f.inPorts[id]
	return Visit{Slice: sl, Ports: ps, AnyPort: !constrained}
}

// AffectedBy reports whether a rule delta at the visited node can affect
// the traversal: the delta's in-port restriction (if any) intersects the
// arrival ports, and the delta's space overlaps the arriving slice. This is
// the one overlap predicate: Footprint.AffectedBy applies it to one
// traversal, the verifier's index to a whole class of them.
func (v Visit) AffectedBy(d Delta) bool {
	if len(d.Ports) > 0 && !v.AnyPort && !portsIntersect(v.Ports, d.Ports) {
		return false
	}
	return len(v.Slice.terms) == 0 || v.Slice.Overlaps(d.Space)
}

// AppendKey appends the visit's identity to dst: width, in-port set and
// slice terms, each in recorded order. Two visits with equal keys are the
// same value, so AffectedBy agrees on them for every delta; the same
// packets recorded in another term or port order get another key, which
// costs a grouping index one more test and never a wrong answer.
func (v Visit) AppendKey(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Slice.width))
	if v.AnyPort {
		dst = append(dst, 0xFF)
	} else {
		dst = append(dst, byte(len(v.Ports))) // at most footprintPortCap
		for _, p := range v.Ports {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(p))
		}
	}
	for _, t := range v.Slice.terms {
		for _, w := range t.words {
			dst = binary.LittleEndian.AppendUint64(dst, w)
		}
	}
	return dst
}

// AffectedBy reports whether a rule delta at node id can affect an
// evaluation that produced this footprint: the node was visited and the
// delta affects what was presented there (Visit.AffectedBy).
func (f Footprint) AffectedBy(id NodeID, d Delta) bool {
	v, ok := f.VisitAt(id)
	return ok && v.AffectedBy(d)
}

// Contains reports whether the node was visited.
func (f Footprint) Contains(id NodeID) bool {
	_, ok := f.slices[id]
	return ok
}

// Each calls fn for every visited node, in no particular order.
func (f Footprint) Each(fn func(id NodeID, v Visit)) {
	for id, sl := range f.slices {
		fn(id, f.visit(id, sl))
	}
}

// Nodes returns the visited node ids in ascending order.
func (f Footprint) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(f.slices))
	for id := range f.slices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// InvalidatedBy reports whether an evaluation that produced this
// footprint must be re-run: deltas maps each changed node to the
// header-space change its configuration change can affect (optionally
// confined to specific in-ports), and the footprint is invalidated only
// when some changed node's delta can affect the evaluation per AffectedBy.
// A zero footprint (never evaluated) is always invalidated. Callers must
// omit nodes whose delta is semantically empty (e.g. a fully-shadowed rule
// insert) from the map — an unconstrained footprint entry overlaps every
// listed delta. This is the per-traversal statement of what an index over
// visits must dispatch; the verifier's tests hold its index to it.
func (f Footprint) InvalidatedBy(deltas map[NodeID]Delta) bool {
	if f.slices == nil {
		return true
	}
	for id, d := range deltas {
		if f.AffectedBy(id, d) {
			return true
		}
	}
	return false
}

// Delta describes the effective change to one node's forwarding behavior:
// the header-space slice whose handling may differ (Space) and, when every
// changed rule was in-port-restricted, the in-ports the change is confined
// to. Nil or empty Ports means the change applies on any in-port.
type Delta struct {
	Space Space
	Ports []PortID
}

// deltaPortCap bounds a Delta's in-port set as restrictions accumulate
// across coalesced events; past it the delta widens to any-port.
const deltaPortCap = 8

// MergeDeltas unions b into a: spaces union (term count capped by the
// caller's policy via Space.Union semantics at the call site) and port
// restrictions union, widening to any-port when either side is
// unrestricted or the merged set passes the cap. Only the Ports half is
// handled here; callers union the spaces themselves (term caps differ per
// accumulator).
func MergeDeltaPorts(a, b []PortID) []PortID {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
merge:
	for _, p := range b {
		for _, q := range a {
			if q == p {
				continue merge
			}
		}
		if len(a) >= deltaPortCap {
			return nil
		}
		a = append(a, p)
	}
	return a
}

// portsIntersect reports whether the two (small) port sets share a port.
func portsIntersect(a, b []PortID) bool {
	for _, p := range a {
		for _, q := range b {
			if p == q {
				return true
			}
		}
	}
	return false
}

// seenEntry is one node of the per-branch visited list. The list is a
// persistent (immutable, structurally shared) stack: extending a branch
// pushes one node; sibling branches share the common prefix. This replaces
// the per-hop full copy of a map[visitKey][]Space the recursive engine made,
// turning O(path × visited) allocation per hop into O(1).
type seenEntry struct {
	node   NodeID
	port   PortID
	space  Space
	parent *seenEntry
}

// pathEntry is the persistent analogue for paths: hops are only materialised
// into a []NodeID when a result is emitted.
type pathEntry struct {
	node   NodeID
	depth  int
	parent *pathEntry
}

func (p *pathEntry) len() int {
	if p == nil {
		return 0
	}
	return p.depth
}

// materialize renders the persistent path ingress-hop-first.
func (p *pathEntry) materialize() []NodeID {
	out := make([]NodeID, p.len())
	for e := p; e != nil; e = e.parent {
		out[e.depth-1] = e.node
	}
	return out
}

// frame is one pending traversal state on the explicit stack. An egress
// frame carries a result to emit (node/inPort are the egress coordinates);
// a traversal frame continues the walk at (node, inPort). Deferring egress
// emissions onto the stack keeps result order identical to the recursive
// engine's depth-first rule order.
type frame struct {
	node   NodeID
	inPort PortID
	space  Space
	path   *pathEntry
	seen   *seenEntry
	egress bool
}

// Reach propagates the space `in`, injected into node `at` on port `port`,
// until it leaves the network at edge ports, is dropped or loops. It returns
// every distinct egress with the (possibly rewritten) space reaching it.
//
// Loop detection follows HSA: a branch terminates when the space arriving at
// a (node, port) is covered by a space previously seen at the same
// (node, port) on this branch's path.
//
// The traversal is an explicit-stack depth-first walk (no recursion), so
// deep topologies cannot exhaust goroutine stacks, and branch state (seen
// sets, paths) is structurally shared between siblings instead of copied.
func (n *Network) Reach(at NodeID, port PortID, in Space, opt ReachOptions) []ReachResult {
	return n.reach(at, port, in, opt, Footprint{})
}

// ReachFootprint is Reach plus the visited-node cone of the traversal
// (see Footprint). The returned footprint is never nil.
func (n *Network) ReachFootprint(at NodeID, port PortID, in Space, opt ReachOptions) ([]ReachResult, Footprint) {
	fp := NewFootprint()
	return n.reach(at, port, in, opt, fp), fp
}

func (n *Network) reach(at NodeID, port PortID, in Space, opt ReachOptions, fp Footprint) []ReachResult {
	// A branch longer than this is cut as hop-bounded.
	maxHops := max(4*len(n.nodes), 16)
	var results []ReachResult

	stack := make([]frame, 1, 64)
	stack[0] = frame{node: at, inPort: port, space: in.Clone()}
	// scratch reverses emissions so the stack pops them in rule order,
	// keeping result order identical to the recursive engine's DFS.
	var scratch []frame

	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		if st.egress {
			results = append(results, ReachResult{
				EgressNode: st.node, EgressPort: st.inPort,
				Space: st.space, Path: st.path.materialize(),
			})
			continue
		}
		if fp.Recorded() {
			// Every consulted node enters the footprint — including nodes
			// where the branch dies (drop, loop, hop bound): a change there
			// could revive it. The arriving space is recorded as the node's
			// slice: a rule delta disjoint from every slice presented here
			// cannot change any Apply outcome, hence not the evaluation.
			// The in-port rides along so port-confined deltas can be
			// filtered too; egress frames never reach this point, so only
			// genuine arrival ports are recorded.
			fp.AddSliceAt(st.node, st.space, st.inPort)
		}
		if st.path.len() >= maxHops {
			if opt.KeepLoops {
				results = append(results, ReachResult{
					EgressNode: st.node, EgressPort: st.inPort,
					Space: st.space, Path: st.path.materialize(), Looped: true,
				})
			}
			continue
		}
		looped := false
		for e := st.seen; e != nil; e = e.parent {
			if e.node == st.node && e.port == st.inPort && e.space.Covers(st.space) {
				looped = true
				break
			}
		}
		if looped {
			if opt.KeepLoops {
				results = append(results, ReachResult{
					EgressNode: st.node, EgressPort: st.inPort,
					Space: st.space, Path: st.path.materialize(), Looped: true,
				})
			}
			continue
		}
		tf := n.nodes[st.node]
		if tf == nil {
			continue
		}
		seen := &seenEntry{node: st.node, port: st.inPort, space: st.space, parent: st.seen}

		scratch = scratch[:0]
		for _, em := range tf.Apply(st.space, st.inPort) {
			next := &pathEntry{node: st.node, depth: st.path.len() + 1, parent: st.path}
			if peerNode, peerPort, wired := n.Peer(st.node, em.Port); wired {
				scratch = append(scratch, frame{
					node: peerNode, inPort: peerPort, space: em.Space,
					path: next, seen: seen,
				})
			} else {
				scratch = append(scratch, frame{
					node: st.node, inPort: em.Port, space: em.Space,
					path: next, egress: true,
				})
			}
		}
		for i := len(scratch) - 1; i >= 0; i-- {
			stack = append(stack, scratch[i])
		}
	}
	return results
}

// InjectionPoint names one (node, port) a space is injected at.
type InjectionPoint struct {
	Node NodeID
	Port PortID
}

// PointResult is one injection point's reachability results.
type PointResult struct {
	Results []ReachResult
	// Footprint is the point's visited cone; only populated when
	// ReachOptions.RecordFootprint is set.
	Footprint Footprint
}

// ReachAll runs Reach for the same space from every injection point, fanning
// the points across opt.Parallelism workers (default GOMAXPROCS). Results
// are returned in input order.
func (n *Network) ReachAll(points []InjectionPoint, in Space, opt ReachOptions) []PointResult {
	out := make([]PointResult, len(points))
	if len(points) == 0 {
		return out
	}
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	PoolRun(len(points), workers, func(i int) {
		p := points[i]
		var fp Footprint
		if opt.RecordFootprint {
			fp = NewFootprint()
		}
		out[i] = PointResult{Results: n.reach(p.Node, p.Port, in, opt, fp), Footprint: fp}
	})
	return out
}

// EgressSet aggregates reach results into the union of spaces per edge port.
// The aggregate owns its spaces: every inserted space is deep-copied, so
// mutating the returned map (or the underlying terms) can never alias back
// into the ReachResults, and vice versa.
func EgressSet(results []ReachResult) map[NodeID]map[PortID]Space {
	out := make(map[NodeID]map[PortID]Space)
	for _, r := range results {
		if r.Looped {
			continue
		}
		ports := out[r.EgressNode]
		if ports == nil {
			ports = make(map[PortID]Space)
			out[r.EgressNode] = ports
		}
		if cur, ok := ports[r.EgressPort]; ok {
			// Union deep-copies both operands' terms before compaction, so
			// the stored space shares nothing with r.Space.
			ports[r.EgressPort] = cur.Union(r.Space)
		} else {
			ports[r.EgressPort] = r.Space.Clone()
		}
	}
	return out
}

// TraversedNodes returns the distinct node ids any non-looped result passes
// through, in ascending order. Useful for geo queries.
func TraversedNodes(results []ReachResult) []NodeID {
	set := make(map[NodeID]struct{})
	for _, r := range results {
		if r.Looped {
			continue
		}
		for _, id := range r.Path {
			set[id] = struct{}{}
		}
	}
	ids := make([]NodeID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
