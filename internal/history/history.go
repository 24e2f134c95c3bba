// Package history keeps a bounded, commit-ordered record of configuration
// changes. The paper uses it against short-term reconfiguration attacks:
// "short term reconfiguration attacks can also be prevented by maintaining
// some history" (§IV-A).
package history

import (
	"crypto/sha256"
	"encoding/hex"
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

// Record is one commit: switch Switch's committed flow table at snapshot
// SnapshotID, recorded at At. Every commit changes exactly one switch, so
// the table of every other switch is what its own latest earlier record
// says. Entries is shared with the committer and never modified.
type Record struct {
	At         time.Time
	SnapshotID uint64
	Switch     topology.SwitchID
	Entries    []openflow.FlowEntry
}

// Store is a bounded ring of commit records, ordered by SnapshotID — the
// commit order. The ring is allocated once at capacity; once full, each
// append evicts the oldest record into base. The zero value is unusable;
// use NewStore.
type Store struct {
	mu   sync.Mutex
	ring []Record
	head int // index of the oldest retained record
	n    int // retained count, n <= len(ring)
	// base holds, per switch, the newest evicted record: together with the
	// oldest retained record it is every switch's table as of that record.
	base map[topology.SwitchID]Record
}

// NewStore returns a store retaining up to capacity records.
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = 1
	}
	return &Store{ring: make([]Record, capacity), base: make(map[topology.SwitchID]Record)}
}

func (s *Store) at(i int) *Record { return &s.ring[(s.head+i)%len(s.ring)] }

// Append stores one commit's record. Concurrent committers (parallel active
// polls racing passive events) may append out of commit order; the
// insertion scan runs from the tail, so the common in-order append stays
// O(1). When the ring is full, the oldest record — r itself, if r is older
// still — is folded into its switch's base.
func (s *Store) Append(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == len(s.ring) {
		oldest := s.at(0)
		if r.SnapshotID < oldest.SnapshotID {
			s.fold(r)
			return
		}
		s.fold(*oldest)
		s.head = (s.head + 1) % len(s.ring)
		s.n--
	}
	i := s.n
	for ; i > 0 && s.at(i-1).SnapshotID > r.SnapshotID; i-- {
		*s.at(i) = *s.at(i - 1)
	}
	*s.at(i) = r
	s.n++
}

// fold makes an evicted record its switch's base, unless the base already
// holds a later commit of that switch.
func (s *Store) fold(r Record) {
	if b, ok := s.base[r.Switch]; !ok || b.SnapshotID < r.SnapshotID {
		s.base[r.Switch] = r
	}
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

// liveTable is one switch's entries during the churn fold: keys in table
// order, and each key's entry with the time it was first seen.
type liveTable struct {
	keys []string
	live map[string]liveEntry
}

type liveEntry struct {
	entry openflow.FlowEntry
	since time.Time
}

// ChurnEvents folds the retained records in commit order and returns every
// entry that was installed in one record and gone in a later one, in the
// order of the commits that removed it. Entries every switch held at the
// oldest retained record count as installed then.
func (s *Store) ChurnEvents() []Churn {
	s.mu.Lock()
	if s.n < 2 {
		s.mu.Unlock()
		return nil
	}
	records := make([]Record, s.n)
	for i := range records {
		records[i] = *s.at(i)
	}
	first := make(map[topology.SwitchID][]openflow.FlowEntry, len(s.base)+1)
	for sw, b := range s.base {
		first[sw] = b.Entries
	}
	s.mu.Unlock()
	first[records[0].Switch] = records[0].Entries

	since := records[0].At
	tables := make(map[topology.SwitchID]*liveTable)
	var churn []Churn
	for _, r := range records[1:] {
		prev := tables[r.Switch]
		if prev == nil {
			prev = foldTable(r.Switch, first[r.Switch], &liveTable{}, since)
		}
		cur := foldTable(r.Switch, r.Entries, prev, r.At)
		for _, k := range prev.keys {
			if _, still := cur.live[k]; !still {
				le := prev.live[k]
				churn = append(churn, Churn{Entry: le.entry, AddedAt: le.since, RemovedAt: r.At})
			}
		}
		tables[r.Switch] = cur
	}
	return churn
}

// foldTable is switch sw's live table after a record with entries at time
// at: an entry prev already holds keeps its install time, any other is
// installed at at.
func foldTable(sw topology.SwitchID, entries []openflow.FlowEntry, prev *liveTable, at time.Time) *liveTable {
	t := &liveTable{live: make(map[string]liveEntry, len(entries))}
	for _, e := range entries {
		k := EntryKey(sw, e)
		if _, dup := t.live[k]; !dup {
			t.keys = append(t.keys, k)
		}
		if le, ok := prev.live[k]; ok {
			t.live[k] = le
		} else {
			t.live[k] = liveEntry{entry: e, since: at}
		}
	}
	return t
}
