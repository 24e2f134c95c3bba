package campaign

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/history"
	"repro/internal/rvaas"
)

// fingerprints accumulate the campaign's three determinism/divergence
// streams: the committed event stream, the per-subscription verdict state,
// and the violation-log transition stream. Snapshot ids are deliberately
// excluded from every hash: concurrent committers on different switches
// race for global id assignment, so ids are not stable run-to-run even
// though the per-switch committed state sequence is.
type fingerprints struct {
	events      uint64
	verdicts    uint64
	transitions uint64
}

func (f *fingerprints) String() string {
	return fmt.Sprintf("ev:%016x verdicts:%016x transitions:%016x", f.events, f.verdicts, f.transitions)
}

func fold(acc uint64, s string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|%s", acc, s)
	return h.Sum64()
}

// canonicalizeEvents orders one step's tapped events for replay and
// hashing. Replay order is commit order (snapshot id — total and correct:
// per-switch commits are serialized, and full-state replay makes
// cross-switch interleaving irrelevant to the end-of-step snapshot).
// The hash orders by (switch, seq, id) and hashes everything except the id,
// which makes the digest identical across runs of the same seed.
func canonicalizeEvents(evs []rvaas.TapEvent) []rvaas.TapEvent {
	sort.Slice(evs, func(i, j int) bool { return evs[i].SnapshotID < evs[j].SnapshotID })
	return evs
}

func hashEvents(acc uint64, evs []rvaas.TapEvent) uint64 {
	hashed := make([]rvaas.TapEvent, len(evs))
	copy(hashed, evs)
	sort.Slice(hashed, func(i, j int) bool {
		a, b := hashed[i], hashed[j]
		if a.Switch != b.Switch {
			return a.Switch < b.Switch
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.SnapshotID < b.SnapshotID
	})
	for _, ev := range hashed {
		acc = fold(acc, fmt.Sprintf("sw=%d seq=%d src=%d entries=%v ports=%v meters=%v",
			ev.Switch, ev.Seq, ev.Source, ev.Entries, ev.Ports, ev.Meters))
	}
	return acc
}

// verdictLine is the comparable projection of one standing invariant's
// state. Session/instance/footprint fields are excluded: they legitimately
// differ between the primary (fleet placement, wire sessions) and the
// shadow reference.
func verdictLine(s rvaas.SubscriptionInfo) string {
	return fmt.Sprintf("id=%d kind=%s param=%q violated=%t detail=%q seq=%d",
		s.ID, s.Kind, s.Param, s.Violated, s.Detail, s.Seq)
}

func verdictLines(subs []rvaas.SubscriptionInfo) []string {
	sorted := make([]rvaas.SubscriptionInfo, len(subs))
	copy(sorted, subs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	out := make([]string, len(sorted))
	for i, s := range sorted {
		out[i] = verdictLine(s)
	}
	return out
}

func hashLines(acc uint64, lines []string) uint64 {
	for _, l := range lines {
		acc = fold(acc, l)
	}
	return acc
}

// transitionLines canonicalizes one step's new violation-log records:
// sorted by subscription id (a subscription transitions at most once per
// step — both controllers recheck exactly once), timestamps and snapshot
// ids dropped.
func transitionLines(recs []history.Violation) []string {
	sorted := make([]history.Violation, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].SubID != sorted[j].SubID {
			return sorted[i].SubID < sorted[j].SubID
		}
		return sorted[i].Event < sorted[j].Event
	})
	out := make([]string, len(sorted))
	for i, v := range sorted {
		out[i] = fmt.Sprintf("sub=%d event=%s kind=%s detail=%q", v.SubID, v.Event, v.Kind, v.Detail)
	}
	return out
}

// stepTransitions returns the canonical lines of the records appended to
// log since cursor, and whether every one of them is still retained (the
// log is a bounded ring: a step that commits more transitions than it holds
// evicts its own oldest records).
func stepTransitions(log *history.ViolationLog, cursor uint64) (lines []string, complete bool) {
	recs := log.Since(cursor)
	return transitionLines(recs), uint64(len(recs)) == log.Appended()-cursor
}

// firstDiff returns the first position where two canonical line slices
// disagree, formatted for a divergence report.
func firstDiff(primary, shadow []string) string {
	n := len(primary)
	if len(shadow) > n {
		n = len(shadow)
	}
	for i := 0; i < n; i++ {
		var p, s string
		if i < len(primary) {
			p = primary[i]
		}
		if i < len(shadow) {
			s = shadow[i]
		}
		if p != s {
			return fmt.Sprintf("primary[%d]=%s shadow[%d]=%s", i, orMissing(p), i, orMissing(s))
		}
	}
	return ""
}

func orMissing(s string) string {
	if s == "" {
		return "<missing>"
	}
	return s
}
