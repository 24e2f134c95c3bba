package rvaas

import (
	"sync"
	"testing"

	"repro/internal/headerspace"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

func cacheEntry(ip uint32, out uint32) openflow.FlowEntry {
	return openflow.FlowEntry{
		Priority: 100,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(ip), Mask: 0xFFFFFFFF},
		}},
		Actions: []openflow.Action{openflow.Output(out)},
	}
}

// TestCompiledNetworkCache asserts the three cache behaviours the compile
// cache exists for: (1) an unchanged snapshot serves the identical network
// with zero compilation, (2) a single-switch change recompiles exactly that
// switch, (3) the rebuilt network reflects the change.
func TestCompiledNetworkCache(t *testing.T) {
	topo, err := topology.Linear(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newSnapshotStore()
	for _, sw := range topo.Switches() {
		s.replaceState(sw, []openflow.FlowEntry{cacheEntry(0x0A000001, 2)}, nil, nil, 1, false)
	}

	n1, _ := s.buildNetwork(topo)
	st := s.compileStats()
	if st.NetworkBuilds != 1 || st.NetworkHits != 0 {
		t.Fatalf("after first build: %+v", st)
	}
	if st.SwitchCompiles != 3 || st.SwitchReuses != 0 {
		t.Fatalf("first build compiled %d switches (reused %d), want 3 (0)", st.SwitchCompiles, st.SwitchReuses)
	}

	// Unchanged snapshot: cache hit, same network object, no compilation.
	n2, _ := s.buildNetwork(topo)
	st = s.compileStats()
	if n2 != n1 {
		t.Error("unchanged snapshot rebuilt the network")
	}
	if st.NetworkHits != 1 || st.NetworkBuilds != 1 || st.SwitchCompiles != 3 {
		t.Fatalf("after cache hit: %+v", st)
	}

	// One passive event on switch 1: only switch 1 recompiles.
	ev, ok, _ := s.applyEvent(1, &openflow.FlowMonitorReply{
		Seq: 2, Kind: openflow.FlowEventAdded, Entry: cacheEntry(0x0A000002, 1),
	})
	if !ok {
		t.Fatal("applyEvent rejected in-sequence event")
	}
	if ev.SnapshotID != s.snapshotID() || ev.Switch != 1 || len(ev.Entries) != 2 {
		t.Fatalf("commit record = id %d, %d entries on sw%d; want id %d, 2 on sw1", ev.SnapshotID, len(ev.Entries), ev.Switch, s.snapshotID())
	}
	n3, _ := s.buildNetwork(topo)
	st = s.compileStats()
	if n3 == n2 {
		t.Error("changed snapshot served the stale cached network")
	}
	if st.NetworkBuilds != 2 {
		t.Fatalf("builds = %d, want 2", st.NetworkBuilds)
	}
	if st.SwitchCompiles != 4 {
		t.Errorf("switch compiles = %d, want 4 (one incremental recompile)", st.SwitchCompiles)
	}
	if st.SwitchReuses != 2 {
		t.Errorf("switch reuses = %d, want 2", st.SwitchReuses)
	}
	// The incremental rebuild must see the new rule on switch 1 only.
	if got := n3.Node(headerspace.NodeID(1)).Len(); got != 2 {
		t.Errorf("switch 1 compiled rules = %d, want 2", got)
	}
	if got := n3.Node(headerspace.NodeID(2)).Len(); got != 1 {
		t.Errorf("switch 2 compiled rules = %d, want 1", got)
	}
	// Unchanged transfer functions are shared between network generations.
	if n3.Node(headerspace.NodeID(2)) != n2.Node(headerspace.NodeID(2)) {
		t.Error("unchanged switch 2 transfer function was recompiled")
	}

	// Full resync of one switch also invalidates just that switch.
	s.replaceState(2, []openflow.FlowEntry{cacheEntry(0x0A000003, 2)}, nil, nil, 9, false)
	_, _ = s.buildNetwork(topo)
	st = s.compileStats()
	if st.SwitchCompiles != 5 {
		t.Errorf("switch compiles after resync = %d, want 5", st.SwitchCompiles)
	}

	// A different topology object invalidates everything.
	topo2, err := topology.Linear(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = s.buildNetwork(topo2)
	st = s.compileStats()
	if st.SwitchCompiles != 8 {
		t.Errorf("switch compiles after topology swap = %d, want 8", st.SwitchCompiles)
	}
}

// TestCompiledNetworkCacheConcurrentChange makes sure a network assembled
// while the snapshot moved underneath it is not published as current.
func TestCompiledNetworkCacheSeqGapUnchanged(t *testing.T) {
	topo, err := topology.Linear(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newSnapshotStore()
	s.replaceState(1, nil, nil, nil, 1, false)
	s.replaceState(2, nil, nil, nil, 1, false)
	_, _ = s.buildNetwork(topo)
	// A rejected (out-of-sequence) event must NOT invalidate the cache.
	if _, ok, stale := s.applyEvent(1, &openflow.FlowMonitorReply{Seq: 7}); ok || stale {
		t.Fatal("gap event unexpectedly accepted or marked stale")
	}
	// An already-superseded event is reported stale, not as a gap.
	if _, ok, stale := s.applyEvent(1, &openflow.FlowMonitorReply{Seq: 1}); ok || !stale {
		t.Fatal("stale event not classified as stale")
	}
	_, _ = s.buildNetwork(topo)
	st := s.compileStats()
	if st.NetworkHits != 1 {
		t.Errorf("rejected event spoiled the cache: %+v", st)
	}
}

// TestBuildNetworkNamesItsSnapshot: a signed verdict names the snapshot it
// was computed on. While a writer keeps replacing switch 2's table, every
// (network, id) pair buildNetwork returns must agree: switch 2's compiled
// rule count equals the table committed at that id.
func TestBuildNetworkNamesItsSnapshot(t *testing.T) {
	topo, err := topology.Linear(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newSnapshotStore()
	s.replaceTable(1, nil, nil, 1)
	s.replaceTable(3, nil, nil, 1)
	var mu sync.Mutex
	committed := map[uint64]int{}
	commit := func(rules int, seq uint64) {
		table := make([]openflow.FlowEntry, rules)
		for i := range table {
			table[i] = cacheEntry(0x0A000000+uint32(i), 2)
		}
		s.replaceTable(2, table, nil, seq)
		mu.Lock()
		committed[s.snapshotID()] = rules // the only writer: the id is this table's
		mu.Unlock()
	}
	commit(1, 1)

	type pair struct {
		id    uint64
		rules int
	}
	done := make(chan struct{})
	seen := make([][]pair, 2)
	var wg sync.WaitGroup
	for r := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				net, id := s.buildNetwork(topo)
				seen[r] = append(seen[r], pair{id, net.Node(headerspace.NodeID(2)).Len()})
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		commit(16*(i%4+1), uint64(i+2))
	}
	close(done)
	wg.Wait()

	builds, mismatches := 0, 0
	for _, ps := range seen {
		for _, p := range ps {
			builds++
			if want, ok := committed[p.id]; !ok || want != p.rules {
				mismatches++
			}
		}
	}
	if mismatches != 0 {
		t.Fatalf("%d of %d networks named a snapshot other than the one they were compiled from", mismatches, builds)
	}
	t.Logf("%d builds, every one paired with its own snapshot id", builds)
}
