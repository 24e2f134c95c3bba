package rvaas

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/enclave"
	"repro/internal/headerspace"
	"repro/internal/history"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

func fwdEntry(prio uint16, dstIP uint32, port uint32) openflow.FlowEntry {
	return openflow.FlowEntry{
		Priority: prio,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(dstIP), Mask: 0xFFFFFFFF},
		}},
		Actions: []openflow.Action{openflow.Output(port)},
		Cookie:  uint64(dstIP),
	}
}

func ipSpace(dstIP uint32) headerspace.Space {
	return headerspace.NewSpace(wire.HeaderWidth,
		wire.FieldHeader(wire.FieldIPDst, uint64(dstIP), 0xFFFFFFFF))
}

// ------------------------------------------------ snapshot bugfixes -----

// TestReplaceStateNilMetersKeepsStored is the meter-wipe regression test:
// a table-only resync (replaceTable passes meters=nil) must neither delete
// the stored meter table nor count as a change — the old code did both,
// so an ordinary active poll silently destroyed meter state and forced a
// spurious snapshot-id bump plus compile-cache invalidation.
func TestReplaceStateNilMetersKeepsStored(t *testing.T) {
	s := newSnapshotStore()
	sw := topology.SwitchID(3)
	table := []openflow.FlowEntry{fwdEntry(100, 0x0A000001, 2)}
	meters := []openflow.MeterConfig{{MeterID: 7, RateKbps: 1000, BurstKB: 64}}

	_, changed, _ := s.replaceState(sw, table, []uint32{1, 2}, meters, 1, false)
	if !changed {
		t.Fatal("initial snapshot not recorded as a change")
	}
	idAfterFull := s.snapshotID()

	// Table-only resync of identical state: meters must survive, nothing
	// must change.
	s.replaceTable(sw, table, []uint32{1, 2}, 2)
	if got := s.metersOf(sw); len(got) != 1 || got[0] != meters[0] {
		t.Fatalf("table-only resync wiped the meter table: %+v", got)
	}
	if s.snapshotID() != idAfterFull {
		t.Fatalf("identical table-only resync bumped snapshot id %d -> %d", idAfterFull, s.snapshotID())
	}

	// A genuinely changed table via replaceTable still must not touch
	// meters.
	table2 := append(table, fwdEntry(90, 0x0A000002, 1))
	s.replaceTable(sw, table2, []uint32{1, 2}, 3)
	if got := s.metersOf(sw); len(got) != 1 || got[0] != meters[0] {
		t.Fatalf("changed table-only resync wiped the meter table: %+v", got)
	}
	if s.snapshotID() != idAfterFull+1 {
		t.Fatalf("changed resync id delta = %d, want 1", s.snapshotID()-idAfterFull)
	}

	// An explicit empty (non-nil) meter section DOES clear the meters.
	_, changed, _ = s.replaceState(sw, table2, nil, []openflow.MeterConfig{}, 4, false)
	if !changed {
		t.Fatal("meter clear not recorded as a change")
	}
	if got := s.metersOf(sw); len(got) != 0 {
		t.Fatalf("explicit empty meter section kept meters: %+v", got)
	}
}

// TestSameEntryIncludesMeterID: MeterID is part of rule identity, so
// tablesEqual and applyEvent's entry matching agree.
func TestSameEntryIncludesMeterID(t *testing.T) {
	a := fwdEntry(100, 0x0A000001, 2)
	b := a
	b.MeterID = 9
	if sameEntry(a, b) {
		t.Fatal("entries differing only in MeterID compare as the same rule")
	}
	if tablesEqual([]openflow.FlowEntry{a}, []openflow.FlowEntry{b}) {
		t.Fatal("tables differing only in MeterID compare equal")
	}

	// A removal event naming the metered variant must not delete the
	// unmetered rule.
	s := newSnapshotStore()
	sw := topology.SwitchID(1)
	s.replaceState(sw, []openflow.FlowEntry{a}, nil, nil, 1, false)
	_, ok, _ := s.applyEvent(sw, &openflow.FlowMonitorReply{Kind: openflow.FlowEventRemoved, Entry: b, Seq: 2})
	if !ok {
		t.Fatal("event not applied")
	}
	if got := s.table(sw); len(got) != 1 {
		t.Fatalf("removal of metered variant deleted the unmetered rule: %+v", got)
	}
}

// TestPollClearsDeletedMeters: the wire codec decodes an empty meter
// section to a nil slice, but a StatsReply is a FULL state snapshot —
// applyStats must normalize nil to "zero meters" so a meter deletion on
// the switch is visible to the next poll (nil-means-keep is only for
// table-only resyncs that genuinely carry no meter section).
func TestPollClearsDeletedMeters(t *testing.T) {
	c, _, _ := deltaTestController(t, 3)
	sw := topology.SwitchID(2)
	table := c.snap.table(sw)
	meters := []openflow.MeterConfig{{MeterID: 7, RateKbps: 1000, BurstKB: 64}}
	c.applyStats(sw, &openflow.StatsReply{Entries: table, Ports: []uint32{1, 2, 3}, Meters: meters, TableSeq: 2}, history.SourceActivePoll, false)
	if got := c.snap.metersOf(sw); len(got) != 1 {
		t.Fatalf("meters not stored: %+v", got)
	}
	// The switch deletes its meter; the next full poll decodes Meters=nil.
	c.applyStats(sw, &openflow.StatsReply{Entries: table, Ports: []uint32{1, 2, 3}, Meters: nil, TableSeq: 3}, history.SourceActivePoll, false)
	if got := c.snap.metersOf(sw); len(got) != 0 {
		t.Fatalf("poll with empty meter section did not clear deleted meters: %+v", got)
	}
}

// ------------------------------------------------ rule-delta diffs ------

func TestTableDeltaIdenticalEmpty(t *testing.T) {
	tab := []openflow.FlowEntry{fwdEntry(100, 0x0A000001, 2), fwdEntry(90, 0x0A000002, 1)}
	if d := tableDelta(tab, append([]openflow.FlowEntry(nil), tab...)); !d.Space.IsEmpty() {
		t.Fatalf("identical tables produced delta %v", d)
	}
}

func TestTableDeltaAddRemoveModify(t *testing.T) {
	base := []openflow.FlowEntry{fwdEntry(100, 0x0A000001, 2)}
	added := append([]openflow.FlowEntry{fwdEntry(50, 0x0A000009, 1)}, base...)

	d := tableDelta(base, added)
	if !d.Space.Overlaps(ipSpace(0x0A000009)) {
		t.Fatalf("added rule's space missing from delta %v", d)
	}
	if d.Space.Overlaps(ipSpace(0x0A000001)) {
		t.Fatalf("unchanged rule's space leaked into delta %v", d)
	}
	// Removal is symmetric.
	if d := tableDelta(added, base); !d.Space.Overlaps(ipSpace(0x0A000009)) {
		t.Fatalf("removed rule's space missing from delta %v", d)
	}
	// An action rewrite of an existing rule is a change inside its match.
	mod := []openflow.FlowEntry{fwdEntry(100, 0x0A000001, 3)}
	mod[0].Cookie = base[0].Cookie
	if d := tableDelta(base, mod); !d.Space.Overlaps(ipSpace(0x0A000001)) {
		t.Fatalf("modified rule's space missing from delta %v", d)
	}
}

// TestTableDeltaShadowing: a change fully covered by an unchanged
// higher-priority rule produces an EMPTY delta (no packet's behavior can
// differ), and a partially covered change produces only the unshadowed
// residual.
func TestTableDeltaShadowing(t *testing.T) {
	shadow := fwdEntry(200, 0x0A000009, 2) // exact-match high priority
	base := []openflow.FlowEntry{shadow, fwdEntry(100, 0x0A000001, 2)}

	// Insert a low-priority rule for the same destination: fully shadowed.
	ins := append(append([]openflow.FlowEntry(nil), base...), fwdEntry(10, 0x0A000009, 1))
	if d := tableDelta(base, ins); !d.Space.IsEmpty() {
		t.Fatalf("fully shadowed insert produced delta %v", d)
	}

	// Insert a low-priority /24-wide rule: only the shadowed /32 is carved
	// out of the delta.
	wide := openflow.FlowEntry{
		Priority: 10,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: 0x0A000000, Mask: 0xFFFFFF00},
		}},
		Actions: []openflow.Action{openflow.Output(1)},
	}
	d := tableDelta(base, append(append([]openflow.FlowEntry(nil), base...), wide))
	if d.Space.Overlaps(ipSpace(0x0A000009)) {
		t.Fatalf("shadowed slice leaked into delta %v", d)
	}
	if !d.Space.Overlaps(ipSpace(0x0A000055)) {
		t.Fatalf("unshadowed slice missing from delta %v", d)
	}
	// Equal priority never shadows (arrival order is unknown).
	eq := append(append([]openflow.FlowEntry(nil), base...), fwdEntry(200, 0x0A000009, 1))
	if d := tableDelta(base, eq); !d.Space.Overlaps(ipSpace(0x0A000009)) {
		t.Fatalf("equal-priority insert wrongly shadowed: %v", d)
	}
}

// TestTableDeltaTransparentChurn: controller-only entries (e.g. RVaaS's
// interception rules) are omitted from the compiled model, so churning
// them yields no delta — and they never act as shadowers either.
func TestTableDeltaTransparentChurn(t *testing.T) {
	intercept := openflow.FlowEntry{
		Priority: 0xFFF0,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPProto, Value: uint64(wire.IPProtoUDP), Mask: 0xFF},
		}},
		Actions: []openflow.Action{openflow.Output(openflow.ControllerPort)},
	}
	base := []openflow.FlowEntry{fwdEntry(100, 0x0A000001, 2)}
	if d := tableDelta(base, append([]openflow.FlowEntry{intercept}, base...)); !d.Space.IsEmpty() {
		t.Fatalf("transparent entry churn produced delta %v", d)
	}
	// Not a shadower: an insert below the interception rule still deltas.
	withIntercept := append([]openflow.FlowEntry{intercept}, base...)
	ins := append(append([]openflow.FlowEntry(nil), withIntercept...), fwdEntry(10, 0x0A000009, 1))
	if d := tableDelta(withIntercept, ins); !d.Space.Overlaps(ipSpace(0x0A000009)) {
		t.Fatalf("transparent entry wrongly shadowed the delta: %v", d)
	}
}

// TestTableDeltaEqualPriorityReorder: swapping two overlapping
// equal-priority rules changes which one wins (stable order is arrival
// order), so a pure reorder must produce a non-empty delta.
func TestTableDeltaEqualPriorityReorder(t *testing.T) {
	r1 := fwdEntry(100, 0x0A000009, 1)
	r2 := fwdEntry(100, 0x0A000009, 2)
	d := tableDelta(
		[]openflow.FlowEntry{r1, r2},
		[]openflow.FlowEntry{r2, r1})
	if !d.Space.Overlaps(ipSpace(0x0A000009)) {
		t.Fatalf("equal-priority reorder produced no delta: %v", d)
	}
}

func TestEventDelta(t *testing.T) {
	base := []openflow.FlowEntry{fwdEntry(200, 0x0A000009, 2), fwdEntry(100, 0x0A000001, 2)}
	// Added, fully shadowed.
	d := eventDelta(base, &openflow.FlowMonitorReply{
		Kind: openflow.FlowEventAdded, Entry: fwdEntry(10, 0x0A000009, 1)})
	if !d.Space.IsEmpty() {
		t.Fatalf("shadowed add event produced delta %v", d)
	}
	// Added, unshadowed.
	d = eventDelta(base, &openflow.FlowMonitorReply{
		Kind: openflow.FlowEventAdded, Entry: fwdEntry(10, 0x0A000077, 1)})
	if !d.Space.Overlaps(ipSpace(0x0A000077)) {
		t.Fatalf("add event delta %v misses the new rule", d)
	}
	// Removed.
	d = eventDelta(base, &openflow.FlowMonitorReply{
		Kind: openflow.FlowEventRemoved, Entry: base[1]})
	if !d.Space.Overlaps(ipSpace(0x0A000001)) {
		t.Fatalf("remove event delta %v misses the removed rule", d)
	}
	// Modified in place (same priority+match, new actions).
	mod := fwdEntry(100, 0x0A000001, 3)
	d = eventDelta(base, &openflow.FlowMonitorReply{
		Kind: openflow.FlowEventModified, Entry: mod})
	if !d.Space.Overlaps(ipSpace(0x0A000001)) {
		t.Fatalf("modify event delta %v misses the modified rule", d)
	}
}

// ------------------------------------- differential & race coverage -----

// deltaTestController builds a manual-recheck controller on a linear chain
// with primed routing and one standing invariant per adjacent access-point
// pair, plus one isolation invariant.
func deltaTestController(t *testing.T, nSwitches int) (*Controller, []topology.AccessPoint, []uint64) {
	t.Helper()
	topo, err := topology.Linear(nSwitches, nil)
	if err != nil {
		t.Fatal(err)
	}
	platform, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Topology: topo, Platform: platform, ManualRecheck: true, HistoryDepth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.Start()
	for i := 1; i <= nSwitches; i++ {
		c.snap.replaceState(topology.SwitchID(i), raceRoutingTable(topo, topology.SwitchID(i), nSwitches), nil, nil, 1, false)
	}
	aps := topo.AccessPoints()
	var ids []uint64
	for i := 0; i+1 < len(aps); i++ {
		id, err := c.Subscribe(aps[i].ClientID, wire.QueryReachableDestinations,
			[]wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(aps[i+1].HostIP), Mask: 0xFFFFFFFF}},
			"", aps[i].Endpoint)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	id, err := c.Subscribe(aps[0].ClientID, wire.QueryIsolation,
		[]wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(aps[0].HostIP), Mask: 0xFFFFFFFF}},
		"", aps[0].Endpoint)
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, id)
	c.RecheckNow()
	return c, aps, ids
}

// verdictVector snapshots (Violated, Detail) per subscription in id order.
func verdictVector(c *Controller) []string {
	subs := c.Subscriptions()
	out := make([]string, len(subs))
	for i, s := range subs {
		out[i] = fmt.Sprintf("%d:%v:%s", s.ID, s.Violated, s.Detail)
	}
	return out
}

// TestDeltaDispatchDifferential replays one deterministic event script on
// two identically configured controllers — one running the incremental
// engine, one re-evaluating every invariant from scratch after every step
// (RevalidateAll, the exhaustive reference) — and asserts the full verdict
// vector (violated bit AND detail string) is identical after every step:
// index dispatch and the overlap filter only ever skip evaluations whose
// outcome provably cannot change.
func TestDeltaDispatchDifferential(t *testing.T) {
	const n = 8
	cDelta, aps, _ := deltaTestController(t, n)
	cRef, _, _ := deltaTestController(t, n)

	topo := cDelta.topo
	mkTable := func(sw int, extra ...openflow.FlowEntry) []openflow.FlowEntry {
		return append(append([]openflow.FlowEntry(nil), extra...),
			raceRoutingTable(topo, topology.SwitchID(sw), n)...)
	}
	drop := func(dst uint32) openflow.FlowEntry {
		return openflow.FlowEntry{
			Priority: 3000,
			Match: openflow.Match{Fields: []openflow.FieldMatch{
				{Field: wire.FieldIPDst, Value: uint64(dst), Mask: 0xFFFFFFFF},
			}},
			Cookie: 0xD40D,
		}
	}
	// The script mixes verdict-flipping changes (drops on path switches),
	// delta-invisible churn (unused destinations, fully shadowed inserts,
	// meter-only changes) and restores.
	steps := []struct {
		sw    int
		table []openflow.FlowEntry
	}{
		{4, mkTable(4, drop(aps[4].HostIP))},                   // violates sub 3->4... (footprint crossing 4)
		{4, mkTable(4, drop(aps[4].HostIP), drop(0xCB007101))}, // irrelevant extra churn
		{6, mkTable(6, fwdEntry(1, 0xCB007199, 1))},            // unused dst, low prio
		{4, mkTable(4)},                      // restore
		{2, mkTable(2, drop(aps[2].HostIP))}, // violate around 2
		{2, mkTable(2, drop(aps[2].HostIP), fwdEntry(1, aps[2].HostIP, 1))}, // fully shadowed by the drop
		{2, mkTable(2)},                      // restore
		{7, mkTable(7, drop(aps[0].HostIP))}, // hits the isolation invariant's cones
		{7, mkTable(7)},                      // restore
	}
	seqs := map[int]uint64{}
	for si, st := range steps {
		seqs[st.sw]++
		seq := seqs[st.sw] + 1 // initial prime used seq 1
		for _, c := range []*Controller{cDelta, cRef} {
			c.snap.replaceState(topology.SwitchID(st.sw), st.table, nil, nil, seq, false)
		}
		cDelta.RecheckNow()
		cRef.RevalidateAll()
		dv, rv := verdictVector(cDelta), verdictVector(cRef)
		if len(dv) != len(rv) {
			t.Fatalf("step %d: vector sizes %d vs %d", si, len(dv), len(rv))
		}
		for i := range dv {
			if dv[i] != rv[i] {
				t.Fatalf("step %d: verdict diverged\n  incremental: %s\n  exhaustive:  %s", si, dv[i], rv[i])
			}
		}
	}
	// The incremental engine must actually have skipped work the reference
	// did, or the experiment is vacuous.
	dst, rst := cDelta.SubscriptionStats(), cRef.SubscriptionStats()
	if dst.DeltaSkipped == 0 {
		t.Errorf("delta engine skipped nothing: %+v", dst)
	}
	if dst.Evaluated >= rst.Evaluated {
		t.Errorf("incremental engine evaluated %d >= exhaustive reference %d", dst.Evaluated, rst.Evaluated)
	}
}

// TestDeltaCommitSubscribeRaceStress interleaves rule-delta commits with
// concurrent subscribe/unsubscribe churn under -race, in several rounds;
// after each round it quiesces and proves the overlap filter never skipped
// an invariant whose verdict would change: a forced full revalidation
// produces zero additional transitions and leaves every verdict unchanged.
func TestDeltaCommitSubscribeRaceStress(t *testing.T) {
	const n = 10
	const rounds = 3
	c, aps, _ := deltaTestController(t, n)

	var (
		seqMu   sync.Mutex
		seqs    = map[int]uint64{}
		subErrs atomic.Int64
	)
	commit := func(sw int, table []openflow.FlowEntry) {
		seqMu.Lock()
		seqs[sw]++
		seq := seqs[sw] + 1
		seqMu.Unlock()
		c.snap.replaceState(topology.SwitchID(sw), table, nil, nil, seq, false)
	}

	for round := 0; round < rounds; round++ {
		var stop atomic.Bool
		var wg sync.WaitGroup

		// Committer: flips path switches between routing, routing+drop
		// (verdict flip) and routing+irrelevant churn (delta-invisible),
		// rechecking after each commit.
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7 + round)))
			for !stop.Load() {
				sw := 3 + rng.Intn(5)
				base := raceRoutingTable(c.topo, topology.SwitchID(sw), n)
				switch rng.Intn(3) {
				case 0:
					base = append([]openflow.FlowEntry{{
						Priority: 3000,
						Match: openflow.Match{Fields: []openflow.FieldMatch{
							{Field: wire.FieldIPDst, Value: uint64(aps[sw].HostIP), Mask: 0xFFFFFFFF},
						}},
						Cookie: 0xD40D,
					}}, base...)
				case 1:
					base = append([]openflow.FlowEntry{fwdEntry(1, 0xCB007100+uint32(rng.Intn(17)), 1)}, base...)
				}
				commit(sw, base)
				c.RecheckNow()
			}
		}(round)

		// Subscriber churn against the same engine.
		wg.Add(2)
		for g := 0; g < 2; g++ {
			go func(g int) {
				defer wg.Done()
				for !stop.Load() {
					i := 1 + g*4
					id, err := c.Subscribe(aps[i].ClientID, wire.QueryReachableDestinations,
						[]wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(aps[i+1].HostIP), Mask: 0xFFFFFFFF}},
						"", aps[i].Endpoint)
					if err != nil {
						subErrs.Add(1)
						continue
					}
					if !c.Unsubscribe(aps[i].ClientID, id) {
						subErrs.Add(1)
					}
				}
			}(g)
		}

		time.Sleep(120 * time.Millisecond)
		stop.Store(true)
		wg.Wait()

		// Quiesce: absorb everything pending incrementally, then prove a
		// forced full revalidation changes nothing.
		c.RecheckNow()
		before := c.SubscriptionStats()
		vecBefore := verdictVector(c)
		c.RevalidateAll()
		after := c.SubscriptionStats()
		vecAfter := verdictVector(c)
		if s := diffCommon(vecBefore, vecAfter); s != "" {
			t.Fatalf("round %d: delta dispatch left a stale verdict: %s", round, s)
		}
		if after.Violations != before.Violations || after.Recoveries != before.Recoveries {
			t.Fatalf("round %d: RevalidateAll flipped verdicts the delta dispatch missed: %+v -> %+v", round, before, after)
		}
	}

	if n := subErrs.Load(); n > 0 {
		t.Fatalf("%d subscribe/unsubscribe operations failed", n)
	}
	checkEngineConsistency(t, c)
	if st := c.SubscriptionStats(); st.DeltaSkipped == 0 {
		t.Errorf("stress never exercised the delta filter: %+v", st)
	}
}

// diffCommon reports the first entry present in both id-prefixed vectors
// that differs, or "".
func diffCommon(a, b []string) string {
	index := func(v []string) map[string]string {
		m := make(map[string]string, len(v))
		for _, s := range v {
			var id string
			for i := range s {
				if s[i] == ':' {
					id = s[:i]
					break
				}
			}
			m[id] = s
		}
		return m
	}
	am, bm := index(a), index(b)
	for id, av := range am {
		if bv, ok := bm[id]; ok && av != bv {
			return fmt.Sprintf("%s vs %s", av, bv)
		}
	}
	return ""
}

// TestDeltaPortRefinement: deltas built exclusively from in-port-restricted
// changed rules carry the union of those ports, and an invariant whose
// recorded traversal slice entered the switch on a different port is
// revalidated for free — while a single unrestricted changed rule collapses
// the refinement to any-port.
func TestDeltaPortRefinement(t *testing.T) {
	inPortEntry := func(port uint32, dst uint32) openflow.FlowEntry {
		return openflow.FlowEntry{
			Priority: 50,
			Match: openflow.Match{
				InPort: port,
				Fields: []openflow.FieldMatch{
					{Field: wire.FieldIPDst, Value: uint64(dst), Mask: 0xFFFFFFFF},
				},
			},
			Actions: []openflow.Action{openflow.Output(1)},
		}
	}

	// Single restricted rule: exact port refinement.
	d := deltaOf([]openflow.FlowEntry{inPortEntry(3, 0x0A000009)}, nil)
	if len(d.Ports) != 1 || d.Ports[0] != 3 {
		t.Fatalf("single restricted rule delta ports = %v, want [3]", d.Ports)
	}
	if !d.Space.Overlaps(ipSpace(0x0A000009)) {
		t.Fatalf("restricted rule's space missing from delta")
	}

	// Two restricted rules: port union.
	d = deltaOf([]openflow.FlowEntry{inPortEntry(3, 0x0A000009), inPortEntry(5, 0x0A000010)}, nil)
	if len(d.Ports) != 2 {
		t.Fatalf("two restricted rules delta ports = %v, want two entries", d.Ports)
	}

	// One unrestricted rule anywhere collapses to any-port, regardless of
	// position in the changed set.
	for _, changed := range [][]openflow.FlowEntry{
		{inPortEntry(3, 0x0A000009), fwdEntry(50, 0x0A000010, 1)},
		{fwdEntry(50, 0x0A000010, 1), inPortEntry(3, 0x0A000009)},
	} {
		if d := deltaOf(changed, nil); d.Ports != nil {
			t.Fatalf("unrestricted rule left port refinement %v, want any-port", d.Ports)
		}
	}

	// Exact-slice dispatch: a footprint whose slice at the switch entered
	// on port 7 is disjoint from a port-3 delta even when the header spaces
	// overlap; the same slice on port 3 is invalidated.
	d = deltaOf([]openflow.FlowEntry{inPortEntry(3, 0x0A000009)}, nil)
	deltas := map[headerspace.NodeID]headerspace.Delta{5: d}
	miss := headerspace.NewFootprint()
	miss.AddSliceAt(5, ipSpace(0x0A000009), 7)
	if miss.InvalidatedBy(deltas) {
		t.Fatal("slice entering on port 7 invalidated by a port-3 delta")
	}
	hit := headerspace.NewFootprint()
	hit.AddSliceAt(5, ipSpace(0x0A000009), 3)
	if !hit.InvalidatedBy(deltas) {
		t.Fatal("slice entering on port 3 not invalidated by a port-3 delta")
	}
	// A slice recorded without port information (any-port) stays
	// conservative: the refinement can only ever skip provably safe work.
	anyPort := headerspace.NewFootprint()
	anyPort.AddSlice(5, ipSpace(0x0A000009))
	if !anyPort.InvalidatedBy(deltas) {
		t.Fatal("any-port slice not invalidated by an overlapping port-restricted delta")
	}
}
