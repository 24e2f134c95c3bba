package history

import (
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

func entry(prio uint16, dst uint32, out uint32) openflow.FlowEntry {
	return openflow.FlowEntry{
		Priority: prio,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(dst), Mask: 0xFFFFFFFF},
		}},
		Actions: []openflow.Action{openflow.Output(out)},
	}
}

func rec(at time.Time, id uint64, sw topology.SwitchID, entries ...openflow.FlowEntry) Record {
	return Record{At: at, SnapshotID: id, Switch: sw, Entries: entries}
}

func ids(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.SnapshotID
	}
	return out
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var t0 = time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC)

func TestAppendAndLatest(t *testing.T) {
	s := NewStore(10)
	if got := s.Records(); len(got) != 0 {
		t.Errorf("empty store holds %+v", got)
	}
	s.Append(rec(t0, 1, 1, entry(1, 10, 2)))
	s.Append(rec(t0.Add(time.Second), 2, 2))
	got := s.Records()
	if len(got) != 2 || got[1].SnapshotID != 2 || got[1].Switch != 2 {
		t.Fatalf("records = %+v", got)
	}
	if got[0].Switch != 1 || len(got[0].Entries) != 1 {
		t.Errorf("oldest record = %+v, want switch 1 with one entry", got[0])
	}
}

func TestCapacityEviction(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 10; i++ {
		s.Append(rec(t0.Add(time.Duration(i)*time.Second), uint64(i), topology.SwitchID(i%4)))
	}
	if got := ids(s.Records()); !equalIDs(got, []uint64{7, 8, 9}) {
		t.Fatalf("retained ids %v, want [7 8 9]", got)
	}
	// Every switch's newest evicted commit is its base.
	for sw, want := range map[topology.SwitchID]uint64{0: 4, 1: 5, 2: 6, 3: 3} {
		if b := s.base[sw]; b.SnapshotID != want {
			t.Errorf("switch %d base = id %d, want %d", sw, b.SnapshotID, want)
		}
	}
}

func TestEntryKeyDistinguishes(t *testing.T) {
	e1 := entry(1, 10, 2)
	e2 := entry(1, 10, 3) // different out port
	if EntryKey(1, e1) == EntryKey(1, e2) {
		t.Error("distinct entries share a key")
	}
	if EntryKey(1, e1) == EntryKey(2, e1) {
		t.Error("same entry on different switches shares a key")
	}
	if EntryKey(1, e1) != EntryKey(1, e1) {
		t.Error("key not deterministic")
	}
}

func TestChurnDetectsFlap(t *testing.T) {
	s := NewStore(16)
	stable := entry(1, 10, 2)
	malicious := entry(99, 66, 4)
	// t0: stable only; t0+1s: malicious added; t0+2s: malicious removed.
	s.Append(rec(t0, 1, 1, stable))
	s.Append(rec(t0.Add(time.Second), 2, 1, stable, malicious))
	s.Append(rec(t0.Add(2*time.Second), 3, 1, stable))
	churn := s.ChurnEvents()
	if len(churn) != 1 {
		t.Fatalf("churn = %d events", len(churn))
	}
	c := churn[0]
	if c.Entry.Priority != 99 {
		t.Errorf("churn = %+v", c)
	}
	if c.Lifetime() != time.Second {
		t.Errorf("lifetime = %v", c.Lifetime())
	}
}

func TestChurnMaxLifetimeFilter(t *testing.T) {
	s := NewStore(16)
	flappy := entry(99, 66, 4)
	s.Append(rec(t0, 1, 1))
	s.Append(rec(t0.Add(time.Second), 2, 1, flappy))
	s.Append(rec(t0.Add(10*time.Minute), 3, 1))
	churn := s.ChurnEvents()
	if len(churn) != 1 {
		t.Fatalf("churn = %+v, want the one removed rule", churn)
	}
	// Lifetime is ~10 minutes: a 1-minute flap bound filters it out.
	if lt := churn[0].Lifetime(); lt <= time.Minute {
		t.Errorf("long-lived rule has lifetime %v", lt)
	}
}

func TestChurnStableRulesNotFlagged(t *testing.T) {
	s := NewStore(16)
	stable := entry(1, 10, 2)
	for i := 0; i < 5; i++ {
		s.Append(rec(t0.Add(time.Duration(i)*time.Second), uint64(i), topology.SwitchID(1+i%2), stable))
	}
	if got := s.ChurnEvents(); len(got) != 0 {
		t.Errorf("stable rule flagged: %+v", got)
	}
}

// TestChurnAcrossSwitches: a commit of one switch says nothing about the
// others, so a rule another switch installed before the oldest retained
// record and still holds is not churn, even after its own record is
// evicted.
func TestChurnAcrossSwitches(t *testing.T) {
	s := NewStore(2)
	held, flappy := entry(1, 10, 2), entry(99, 66, 4)
	s.Append(rec(t0, 1, 1, held))
	s.Append(rec(t0.Add(time.Second), 2, 2, flappy))
	s.Append(rec(t0.Add(2*time.Second), 3, 2))
	churn := s.ChurnEvents()
	if len(churn) != 1 || !churn[0].Entry.Equal(flappy) {
		t.Fatalf("churn = %+v, want only switch 2's removed rule", churn)
	}
	if !churn[0].AddedAt.Equal(t0.Add(time.Second)) || !churn[0].RemovedAt.Equal(t0.Add(2*time.Second)) {
		t.Errorf("churn = %+v, want installed at t0+1s, removed at t0+2s", churn[0])
	}
}

// TestChurnFollowsCommitOrder: a commit's record is stamped after its
// locks are released, so two racing commits can carry inverted stamps. The
// fold follows commit order: a rule the later commit added and nothing
// removed is no churn, whatever the stamps say.
func TestChurnFollowsCommitOrder(t *testing.T) {
	s := NewStore(16)
	a, b := entry(1, 10, 2), entry(2, 20, 3)
	s.Append(rec(t0.Add(2*time.Millisecond), 1, 1, a))
	s.Append(rec(t0.Add(time.Millisecond), 2, 1, a, b))
	if got := s.ChurnEvents(); len(got) != 0 {
		t.Errorf("phantom churn of still-installed rules: %+v", got)
	}
}

// TestRecordIsolation: records read back are copies of the ring's slots,
// and each commit keeps the table it was appended with.
func TestRecordIsolation(t *testing.T) {
	s := NewStore(4)
	s.Append(rec(t0, 1, 1, entry(1, 10, 2)))
	s.Append(rec(t0.Add(time.Second), 2, 1, entry(1, 10, 2), entry(2, 20, 3)))
	got := s.Records()
	got[0].Entries = nil
	got[1].SnapshotID = 99
	again := s.Records()
	if len(again[0].Entries) != 1 || len(again[1].Entries) != 2 || again[1].SnapshotID != 2 {
		t.Errorf("store shares its slots with a reader: %+v", again)
	}
}

// TestAppendOutOfOrder: concurrent committers may append out of commit
// order; the store keeps the ring ordered by snapshot id, and a record
// older than everything a full ring retains goes straight to its base.
func TestAppendOutOfOrder(t *testing.T) {
	s := NewStore(3)
	s.Append(rec(t0, 3, 1))
	s.Append(rec(t0, 1, 1)) // late arrival, earlier commit
	s.Append(rec(t0, 2, 2)) // late arrival, middle commit
	if got := ids(s.Records()); !equalIDs(got, []uint64{1, 2, 3}) {
		t.Fatalf("ids %v, want [1 2 3]", got)
	}
	s.Append(rec(t0, 5, 2))
	s.Append(rec(t0, 4, 1))
	if got := ids(s.Records()); !equalIDs(got, []uint64{3, 4, 5}) {
		t.Fatalf("ids %v, want [3 4 5]", got)
	}
	if s.base[1].SnapshotID != 1 || s.base[2].SnapshotID != 2 {
		t.Fatalf("bases %+v, want switch 1 at id 1, switch 2 at id 2", s.base)
	}
	s.Append(rec(t0, 0, 1)) // older than the whole ring and than switch 1's base
	if got := ids(s.Records()); !equalIDs(got, []uint64{3, 4, 5}) || s.base[1].SnapshotID != 1 {
		t.Errorf("ids %v, switch 1 base id %d: a stale record displaced a newer one", got, s.base[1].SnapshotID)
	}
}
