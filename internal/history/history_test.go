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

func rec(at time.Time, id uint64, tables map[topology.SwitchID][]openflow.FlowEntry) Record {
	return Record{At: at, SnapshotID: id, Source: SourceActivePoll, Tables: tables}
}

var t0 = time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC)

func TestAppendAndLatest(t *testing.T) {
	s := NewStore(10)
	if _, ok := s.Latest(); ok {
		t.Error("empty store has a latest record")
	}
	s.Append(rec(t0, 1, map[topology.SwitchID][]openflow.FlowEntry{1: {entry(1, 10, 2)}}))
	s.Append(rec(t0.Add(time.Second), 2, nil))
	got, ok := s.Latest()
	if !ok || got.SnapshotID != 2 {
		t.Errorf("latest = %+v, %v", got, ok)
	}
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestCapacityEviction(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 10; i++ {
		s.Append(rec(t0.Add(time.Duration(i)*time.Second), uint64(i), nil))
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	got, _ := s.Latest()
	if got.SnapshotID != 9 {
		t.Errorf("latest id = %d", got.SnapshotID)
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
	s.Append(rec(t0, 1, map[topology.SwitchID][]openflow.FlowEntry{1: {stable}}))
	s.Append(rec(t0.Add(time.Second), 2, map[topology.SwitchID][]openflow.FlowEntry{1: {stable, malicious}}))
	s.Append(rec(t0.Add(2*time.Second), 3, map[topology.SwitchID][]openflow.FlowEntry{1: {stable}}))
	churn := s.ChurnEvents(0)
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
	s.Append(rec(t0, 1, nil))
	s.Append(rec(t0.Add(time.Second), 2, map[topology.SwitchID][]openflow.FlowEntry{1: {flappy}}))
	s.Append(rec(t0.Add(10*time.Minute), 3, nil))
	// Lifetime is ~10 minutes: filtered out by a 1-minute bound.
	if got := s.ChurnEvents(time.Minute); len(got) != 0 {
		t.Errorf("long-lived rule flagged as flap: %+v", got)
	}
	if got := s.ChurnEvents(0); len(got) != 1 {
		t.Errorf("unbounded churn missed: %+v", got)
	}
}

func TestChurnStableRulesNotFlagged(t *testing.T) {
	s := NewStore(16)
	stable := entry(1, 10, 2)
	for i := 0; i < 5; i++ {
		s.Append(rec(t0.Add(time.Duration(i)*time.Second), uint64(i),
			map[topology.SwitchID][]openflow.FlowEntry{1: {stable}}))
	}
	if got := s.ChurnEvents(0); len(got) != 0 {
		t.Errorf("stable rule flagged: %+v", got)
	}
}

func TestRecordIsolation(t *testing.T) {
	s := NewStore(4)
	tables := map[topology.SwitchID][]openflow.FlowEntry{1: {entry(1, 10, 2)}}
	s.Append(rec(t0, 1, tables))
	// Mutating the caller's map must not affect the store.
	tables[1] = append(tables[1], entry(2, 20, 3))
	got, _ := s.Latest()
	if len(got.Tables[1]) != 1 {
		t.Error("store shares table slices with caller")
	}
	// Mutating the returned record must not affect the store.
	got.Tables[1] = nil
	again, _ := s.Latest()
	if len(again.Tables[1]) != 1 {
		t.Error("store shares table slices with reader")
	}
}

// TestAppendOutOfOrder: concurrent appenders (parallel active polls racing
// passive events) may deliver records out of time order; the store must
// keep them sorted so Latest() and capacity eviction stay correct.
func TestAppendOutOfOrder(t *testing.T) {
	s := NewStore(10)
	s.Append(rec(t0.Add(2*time.Second), 3, nil))
	s.Append(rec(t0, 1, nil))                    // late arrival, earlier time
	s.Append(rec(t0.Add(1*time.Second), 2, nil)) // late arrival, middle time
	latest, ok := s.Latest()
	if !ok || latest.SnapshotID != 3 {
		t.Fatalf("Latest = %+v, want id 3", latest)
	}
	// Equal timestamps order by SnapshotID.
	s.Append(rec(t0.Add(3*time.Second), 5, nil))
	s.Append(rec(t0.Add(3*time.Second), 4, nil))
	latest, _ = s.Latest()
	if latest.SnapshotID != 5 {
		t.Errorf("equal-time Latest = id %d, want 5", latest.SnapshotID)
	}
}
