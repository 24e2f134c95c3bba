package history

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/topology"
)

// fullRecord is the record this package kept before a record carried one
// switch: every switch's table as of one commit.
type fullRecord struct {
	At     time.Time
	Tables map[topology.SwitchID][]openflow.FlowEntry
}

// fullTableChurn is the reference fold ChurnEvents must equal: over the
// last capacity full-table records, everything in the oldest counts as
// installed at its time, and each later record is compared against the
// one before it across every switch.
func fullTableChurn(all []fullRecord, capacity int) []Churn {
	records := all
	if len(records) > capacity {
		records = records[len(records)-capacity:]
	}
	if len(records) < 2 {
		return nil
	}
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
		for k, le := range live {
			if _, still := cur[k]; !still {
				churn = append(churn, Churn{Entry: le.entry, AddedAt: le.since, RemovedAt: records[i].At})
			}
		}
		live = cur
	}
	return churn
}

// canonical orders a churn list by removal, install and entry encoding: a
// total order, since one commit removes each distinct entry at most once.
func canonical(cs []Churn) []Churn {
	out := append([]Churn(nil), cs...)
	enc := func(e openflow.FlowEntry) []byte {
		return openflow.Encode(&openflow.FlowMod{Command: openflow.FlowAdd, Entry: e})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.RemovedAt.Equal(b.RemovedAt) {
			return a.RemovedAt.Before(b.RemovedAt)
		}
		if !a.AddedAt.Equal(b.AddedAt) {
			return a.AddedAt.Before(b.AddedAt)
		}
		return bytes.Compare(enc(a.Entry), enc(b.Entry)) < 0
	})
	return out
}

// commitSequence drives one seeded run of single-switch commits: adds
// (duplicates included), removals, modifications, detach wipes and full
// replacements over nSw switches.
type commitSequence struct {
	r      *rand.Rand
	nSw    int
	tables map[topology.SwitchID][]openflow.FlowEntry
	at     time.Time
	id     uint64
}

func (q *commitSequence) poolEntry() openflow.FlowEntry {
	return entry(uint16(1+q.r.Intn(3)), uint32(10+q.r.Intn(3)), uint32(1+q.r.Intn(2)))
}

// step commits one change and returns its record for both stores.
func (q *commitSequence) step() (Record, fullRecord) {
	sw := topology.SwitchID(1 + q.r.Intn(q.nSw))
	tbl := append([]openflow.FlowEntry(nil), q.tables[sw]...)
	switch op := q.r.Intn(10); {
	case op < 4: // flow added
		tbl = append(tbl, q.poolEntry())
	case op < 6 && len(tbl) > 0: // flow removed
		gone := tbl[q.r.Intn(len(tbl))]
		kept := tbl[:0]
		for _, e := range tbl {
			if !e.Equal(gone) {
				kept = append(kept, e)
			}
		}
		tbl = kept
	case op < 8 && len(tbl) > 0: // flow modified: same priority and match, new actions
		i := q.r.Intn(len(tbl))
		tbl[i].Actions = []openflow.Action{openflow.Output(uint32(1 + q.r.Intn(2)))}
	case op < 9: // detach wipe
		tbl = []openflow.FlowEntry{}
	default: // full-state poll
		tbl = nil
		for n := q.r.Intn(4); n > 0; n-- {
			tbl = append(tbl, q.poolEntry())
		}
	}
	q.tables[sw] = tbl
	q.id++
	q.at = q.at.Add(time.Duration(1+q.r.Intn(1000)) * time.Millisecond)
	full := fullRecord{At: q.at, Tables: make(map[topology.SwitchID][]openflow.FlowEntry, len(q.tables))}
	for k, v := range q.tables {
		full.Tables[k] = append([]openflow.FlowEntry(nil), v...)
	}
	return Record{At: q.at, SnapshotID: q.id, Switch: sw, Entries: full.Tables[sw]}, full
}

// TestChurnMatchesFullTableFold: on seeded commit sequences over several
// switches, with rings small enough to evict, the per-switch fold returns
// exactly the churn the full-table fold does, in removal order.
func TestChurnMatchesFullTableFold(t *testing.T) {
	for seed := int64(1); seed <= 1000; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := &commitSequence{r: r, nSw: 3 + r.Intn(3), tables: map[topology.SwitchID][]openflow.FlowEntry{}, at: t0}
		capacity := 1 + r.Intn(8)
		s := NewStore(capacity)
		var full []fullRecord
		steps := 5 + r.Intn(40)
		for i := 0; i < steps; i++ {
			rec, fr := q.step()
			s.Append(rec)
			full = append(full, fr)
			if i%7 != 6 && i != steps-1 {
				continue
			}
			got := s.ChurnEvents()
			for j := 1; j < len(got); j++ {
				if got[j].RemovedAt.Before(got[j-1].RemovedAt) {
					t.Fatalf("seed %d step %d: churn not in removal order: %+v", seed, i, got)
				}
			}
			if want := fullTableChurn(full, capacity); !reflect.DeepEqual(canonical(got), canonical(want)) {
				t.Fatalf("seed %d step %d (capacity %d): churn\n  %+v\nwant\n  %+v", seed, i, capacity, got, want)
			}
		}
	}
}
