// Package history keeps a bounded, time-indexed record of configuration
// snapshots. The paper uses it against short-term reconfiguration attacks:
// "short term reconfiguration attacks can also be prevented by maintaining
// some history" (§IV-A).
package history

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"
	"time"

	"repro/internal/openflow"
	"repro/internal/topology"
)

// Source says how a snapshot was obtained.
type Source uint8

// Snapshot sources.
const (
	SourcePassive Source = iota + 1 // flow-monitor event stream
	SourceActivePoll
	// SourceDetach marks a snapshot recorded when a switch's control session
	// was lost: its forwarding state is wiped so standing invariants degrade
	// instead of staying green on the pre-detach snapshot.
	SourceDetach
)

// Record is one stored snapshot.
type Record struct {
	At         time.Time
	SnapshotID uint64
	Source     Source
	Tables     map[topology.SwitchID][]openflow.FlowEntry
}

// cloneTables deep-copies a table map.
func cloneTables(in map[topology.SwitchID][]openflow.FlowEntry) map[topology.SwitchID][]openflow.FlowEntry {
	out := make(map[topology.SwitchID][]openflow.FlowEntry, len(in))
	for k, v := range in {
		out[k] = append([]openflow.FlowEntry(nil), v...)
	}
	return out
}

// Store is a bounded ring of snapshot records. The zero value is unusable;
// use NewStore.
type Store struct {
	mu       sync.Mutex
	capacity int
	records  []Record
}

// NewStore returns a store retaining up to capacity records.
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{capacity: capacity}
}

// Append stores a snapshot, evicting the oldest record if full. Records
// are kept ordered by (At, SnapshotID): concurrent appenders (parallel
// active polls racing passive events) may call Append out of order, and
// Latest and eviction rely on the ordering. The insertion scan runs
// from the tail, so the common in-order append stays O(1).
func (s *Store) Append(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.Tables = cloneTables(r.Tables)
	i := len(s.records)
	for i > 0 {
		prev := s.records[i-1]
		if prev.At.Before(r.At) || (prev.At.Equal(r.At) && prev.SnapshotID <= r.SnapshotID) {
			break
		}
		i--
	}
	s.records = append(s.records, Record{})
	copy(s.records[i+1:], s.records[i:])
	s.records[i] = r
	if len(s.records) > s.capacity {
		s.records = s.records[len(s.records)-s.capacity:]
	}
}

// Latest returns the most recent record (ok=false if empty).
func (s *Store) Latest() (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.records) == 0 {
		return Record{}, false
	}
	r := s.records[len(s.records)-1]
	r.Tables = cloneTables(r.Tables)
	return r, true
}

// EntryKey fingerprints a flow entry (priority + match + actions + cookie)
// for churn tracking.
func EntryKey(sw topology.SwitchID, e openflow.FlowEntry) string {
	data := openflow.Encode(&openflow.FlowMod{Command: openflow.FlowAdd, Entry: e})
	h := sha256.Sum256(append(data, byte(sw), byte(sw>>8), byte(sw>>16), byte(sw>>24)))
	return hex.EncodeToString(h[:12])
}

// Churn is a rule that appeared and later disappeared — the signature of a
// short-term reconfiguration (flap) attack.
type Churn struct {
	Entry     openflow.FlowEntry
	AddedAt   time.Time
	RemovedAt time.Time
}

// Lifetime returns how long the churned rule was installed.
func (c Churn) Lifetime() time.Duration { return c.RemovedAt.Sub(c.AddedAt) }

// ChurnEvents scans the retained records (oldest to newest) for entries
// that were added in one snapshot and removed in a later one, with a
// lifetime of at most maxLifetime (0 = unbounded).
func (s *Store) ChurnEvents(maxLifetime time.Duration) []Churn {
	s.mu.Lock()
	records := append([]Record(nil), s.records...)
	s.mu.Unlock()
	if len(records) < 2 {
		return nil
	}
	sort.Slice(records, func(i, j int) bool { return records[i].At.Before(records[j].At) })

	type liveEntry struct {
		entry openflow.FlowEntry
		since time.Time
	}
	// Entries present in the first snapshot are considered pre-existing
	// (since = first snapshot time).
	live := make(map[string]liveEntry)
	for sw, entries := range records[0].Tables {
		for _, e := range entries {
			live[EntryKey(sw, e)] = liveEntry{entry: e, since: records[0].At}
		}
	}
	var churn []Churn
	for i := 1; i < len(records); i++ {
		cur := make(map[string]liveEntry)
		for sw, entries := range records[i].Tables {
			for _, e := range entries {
				k := EntryKey(sw, e)
				if prev, ok := live[k]; ok {
					cur[k] = prev
				} else {
					cur[k] = liveEntry{entry: e, since: records[i].At}
				}
			}
		}
		// Anything live before but absent now was removed.
		for k, le := range live {
			if _, still := cur[k]; still {
				continue
			}
			c := Churn{Entry: le.entry, AddedAt: le.since, RemovedAt: records[i].At}
			if maxLifetime == 0 || c.Lifetime() <= maxLifetime {
				churn = append(churn, c)
			}
		}
		live = cur
	}
	sort.Slice(churn, func(i, j int) bool { return churn[i].AddedAt.Before(churn[j].AddedAt) })
	return churn
}
