package rvaas

import (
	"slices"
	"sync"

	"repro/internal/headerspace"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/wire"
)

// CompileStats counts compiled-network cache activity. Queries against an
// unchanged snapshot must not pay compilation at all (NetworkHits); after a
// single-switch change only that switch's transfer function is recompiled
// (SwitchCompiles grows by 1, SwitchReuses by the rest).
type CompileStats struct {
	// NetworkHits counts buildNetwork calls served entirely from cache.
	NetworkHits uint64
	// NetworkBuilds counts buildNetwork calls that had to assemble a new
	// Network (even if most transfer functions were reused).
	NetworkBuilds uint64
	// SwitchCompiles counts per-switch transfer-function compilations.
	SwitchCompiles uint64
	// SwitchReuses counts per-switch compilations avoided by the cache.
	SwitchReuses uint64
}

// compiledSwitch memoizes one switch's compiled transfer function together
// with the snapshot generation it was compiled from.
type compiledSwitch struct {
	gen uint64
	tf  *headerspace.TransferFunction
}

// snapshotStore maintains RVaaS's up-to-date view of every switch's
// configuration ("the controller maintains an up-to-date snapshot of the
// network configuration, either passively (monitoring events) or actively
// (query the switch state)", §IV-A1).
//
// It also owns the compiled-network cache: buildNetwork memoizes its result
// per snapshot id and recompiles only the transfer functions of switches
// whose state actually changed (tracked by per-switch generation counters).
type snapshotStore struct {
	mu     sync.Mutex
	tables map[topology.SwitchID][]openflow.FlowEntry
	ports  map[topology.SwitchID][]uint32
	meters map[topology.SwitchID][]openflow.MeterConfig
	// seq tracks the last flow-monitor event sequence seen per switch, used
	// to detect gaps (missed events force a full resync).
	seq map[topology.SwitchID]uint64
	// id increments on every applied change; responses carry it so clients
	// can correlate answers with configuration versions.
	id uint64
	// gen increments per switch on every change to that switch's state;
	// the compile cache keys on it.
	gen map[topology.SwitchID]uint64
	// deltas accumulates, per switch, the header-space delta of every
	// change applied since the subscription engine last drained it
	// (generationsAndDeltas): the set of packets whose forwarding behavior
	// at that switch may differ from the drained baseline (see
	// ruledelta.go). A switch with a bumped generation but a semantically
	// empty delta (fully shadowed insert, meter-only change, interception-
	// rule churn) dispatches no re-verification at all.
	deltas map[topology.SwitchID]headerspace.Delta

	// Compiled-network cache. Guarded by mu; the cached *Network itself is
	// immutable once published and safe for concurrent readers.
	compiled  map[topology.SwitchID]compiledSwitch
	cachedNet *headerspace.Network
	cachedID  uint64             // snapshot id cachedNet was built from
	cachedFor *topology.Topology // topology cachedNet/compiled are valid for
	stats     CompileStats
}

func newSnapshotStore() *snapshotStore {
	return &snapshotStore{
		tables:   make(map[topology.SwitchID][]openflow.FlowEntry),
		ports:    make(map[topology.SwitchID][]uint32),
		meters:   make(map[topology.SwitchID][]openflow.MeterConfig),
		seq:      make(map[topology.SwitchID]uint64),
		gen:      make(map[topology.SwitchID]uint64),
		deltas:   make(map[topology.SwitchID]headerspace.Delta),
		compiled: make(map[topology.SwitchID]compiledSwitch),
	}
}

// accumulateDeltaLocked folds one change's header-space delta into the
// switch's pending delta, collapsing to the full space past the term cap
// (conservative: every invariant in the bucket re-runs). Callers hold s.mu.
func (s *snapshotStore) accumulateDeltaLocked(sw topology.SwitchID, d headerspace.Delta) {
	cur, ok := s.deltas[sw]
	if !ok {
		s.deltas[sw] = d
		return
	}
	merged := cur.Space.Union(d.Space)
	if merged.Size() > deltaTermCap {
		merged = headerspace.FullSpace(wire.HeaderWidth)
	}
	s.deltas[sw] = headerspace.Delta{
		Space: merged,
		Ports: headerspace.MergeDeltaPorts(cur.Ports, d.Ports),
	}
}

// bumpLocked records a state change on sw. Callers hold s.mu.
func (s *snapshotStore) bumpLocked(sw topology.SwitchID) {
	s.id++
	s.gen[sw]++
}

// captureLocked returns the commit record of sw's current state: the
// snapshot id with the switch's entries, ports, meters and event seq,
// copied under the lock that applied the mutation. Concurrent committers
// (parallel PollAll, passive events) each get the record of exactly their
// own change, and only the one switch a commit touched is copied. Source
// is the committer's to set. Callers hold s.mu.
func (s *snapshotStore) captureLocked(sw topology.SwitchID) TapEvent {
	ev := TapEvent{
		Switch:     sw,
		SnapshotID: s.id,
		Seq:        s.seq[sw],
		Entries:    append([]openflow.FlowEntry(nil), s.tables[sw]...),
	}
	// make+copy (not append) so "present but empty" survives the copy:
	// replaying a meter wipe needs an empty non-nil slice, nil means "keep".
	if p := s.ports[sw]; p != nil {
		ev.Ports = make([]uint32, len(p))
		copy(ev.Ports, p)
	}
	if m := s.meters[sw]; m != nil {
		ev.Meters = make([]openflow.MeterConfig, len(m))
		copy(ev.Meters, m)
	}
	return ev
}

// exportAll captures every seen switch's committed state in switch order —
// the baseline a differential oracle replays before the event tap takes
// over. One lock acquisition, so the captures are mutually consistent.
func (s *snapshotStore) exportAll() []TapEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	sws := make([]topology.SwitchID, 0, len(s.tables))
	for sw := range s.tables {
		sws = append(sws, sw)
	}
	slices.Sort(sws)
	evs := make([]TapEvent, 0, len(sws))
	for _, sw := range sws {
		evs = append(evs, s.captureLocked(sw))
	}
	return evs
}

// replaceState installs a full snapshot including the meter table. The
// returned record is the switch's state as of exactly this change (zero
// when nothing changed); changed reports whether the switch's state
// actually differed from the stored snapshot. An identical resync (the common case
// for full active polls of a quiet network) advances neither the snapshot
// id nor the switch's generation, so the compile cache stays valid and
// standing invariants revalidate for free.
//
// A reply whose sequence is behind the store's is rejected as stale
// (rejectedStale=true) unless force is set: an operator's forced resync
// and the shadow oracle's replay make the reply authoritative regardless.
func (s *snapshotStore) replaceState(sw topology.SwitchID, entries []openflow.FlowEntry, ports []uint32, meters []openflow.MeterConfig, seq uint64, force bool) (ev TapEvent, changed, rejectedStale bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, seen := s.tables[sw]
	if seen && seq < s.seq[sw] && !force {
		// Stale full-state reply: a late resync answer computed before
		// events we have already folded in. Applying it would roll the
		// switch back in time (and the rolled-back sequence number would
		// manufacture a gap out of the very next in-order event).
		return TapEvent{}, false, true
	}
	// nil ports and nil meters both mean "this reply carries no such
	// section — keep the stored state". Treating nil meters as "wipe" made
	// every table-only resync (replaceTable) both delete the switch's meter
	// state and spuriously count as changed, bumping the snapshot id and
	// invalidating the compile cache on a byte-identical poll.
	changed = !seen ||
		// Order-sensitive: polls report tables in stable order, and a false
		// mismatch merely costs one recompile.
		!slices.EqualFunc(s.tables[sw], entries, openflow.FlowEntry.Equal) ||
		(ports != nil && !slices.Equal(s.ports[sw], ports)) ||
		(meters != nil && !slices.Equal(s.meters[sw], meters))
	s.seq[sw] = seq
	if !changed {
		return TapEvent{}, false, false
	}
	// Rule-delta extraction against the outgoing state: a first-ever
	// snapshot or a port-set change (which alters flood expansion for the
	// whole table) widens to the full header space.
	switch {
	case !seen || (ports != nil && !slices.Equal(s.ports[sw], ports)):
		s.accumulateDeltaLocked(sw, headerspace.Delta{Space: headerspace.FullSpace(wire.HeaderWidth)})
	default:
		s.accumulateDeltaLocked(sw, tableDelta(s.tables[sw], entries))
	}
	s.tables[sw] = append([]openflow.FlowEntry(nil), entries...)
	if ports != nil {
		s.ports[sw] = append([]uint32(nil), ports...)
	}
	if meters != nil {
		s.meters[sw] = append([]openflow.MeterConfig(nil), meters...)
	}
	s.bumpLocked(sw)
	return s.captureLocked(sw), true, false
}

// markUnreachable wipes one switch's forwarding state after its control
// session is lost: with no live channel the controller cannot vouch for any
// of the switch's rules, so standing invariants must re-verify against a
// network where the switch forwards nothing (degraded verdicts, not
// stale-green ones). The event sequence is forgotten with the session it
// numbered: the switch's next session, maybe a restarted process counting
// from zero, re-bases on its own initial sync.
func (s *snapshotStore) markUnreachable(sw topology.SwitchID) (ev TapEvent, changed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.seq, sw)
	if _, seen := s.tables[sw]; !seen {
		return TapEvent{}, false
	}
	if len(s.tables[sw]) == 0 && len(s.meters[sw]) == 0 {
		return TapEvent{}, false
	}
	s.accumulateDeltaLocked(sw, headerspace.Delta{Space: headerspace.FullSpace(wire.HeaderWidth)})
	s.tables[sw] = []openflow.FlowEntry{}
	s.meters[sw] = []openflow.MeterConfig{}
	s.bumpLocked(sw)
	return s.captureLocked(sw), true
}

// metersOf returns a copy of a switch's polled meter table.
func (s *snapshotStore) metersOf(sw topology.SwitchID) []openflow.MeterConfig {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]openflow.MeterConfig(nil), s.meters[sw]...)
}

// applyEvent folds one flow-monitor event into the table. ok is false when
// the event is not the next in sequence: stale marks events already
// superseded by a newer full snapshot (dropped silently), !stale marks a
// forward gap (lost events), signalling the caller to resync. On success
// the returned record is the switch's state as of this event.
func (s *snapshotStore) applyEvent(sw topology.SwitchID, ev *openflow.FlowMonitorReply) (rec TapEvent, ok, stale bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := s.seq[sw]
	if ev.Seq <= last {
		return TapEvent{}, false, true
	}
	if ev.Seq != last+1 {
		return TapEvent{}, false, false
	}
	s.seq[sw] = ev.Seq
	s.accumulateDeltaLocked(sw, eventDelta(s.tables[sw], ev))
	s.bumpLocked(sw)
	switch ev.Kind {
	case openflow.FlowEventAdded:
		s.tables[sw] = append(s.tables[sw], ev.Entry)
	case openflow.FlowEventRemoved:
		kept := s.tables[sw][:0]
		for _, e := range s.tables[sw] {
			if !e.Equal(ev.Entry) {
				kept = append(kept, e)
			}
		}
		s.tables[sw] = kept
	case openflow.FlowEventModified:
		replaced := false
		for i, e := range s.tables[sw] {
			if e.Priority == ev.Entry.Priority && e.Match.Equal(ev.Entry.Match) {
				s.tables[sw][i] = ev.Entry
				replaced = true
			}
		}
		if !replaced {
			s.tables[sw] = append(s.tables[sw], ev.Entry)
		}
	}
	return s.captureLocked(sw), true, false
}

// seqOf returns the last applied event sequence for one switch.
func (s *snapshotStore) seqOf(sw topology.SwitchID) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq[sw]
}

// table returns a copy of one switch's entries.
func (s *snapshotStore) table(sw topology.SwitchID) []openflow.FlowEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]openflow.FlowEntry(nil), s.tables[sw]...)
}

// snapshotID returns the current configuration version.
func (s *snapshotStore) snapshotID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.id
}

// generationsAndDeltas returns the current snapshot id, a copy of the
// per-switch generation counters and an atomic drain of the pending
// per-switch rule deltas: the returned deltas describe exactly the changes
// between the previous drain and the returned generation counters (both
// are read under one lock acquisition, so no change can fall between
// them). Ownership of the returned spaces transfers to the caller.
func (s *snapshotStore) generationsAndDeltas() (uint64, map[topology.SwitchID]uint64, map[topology.SwitchID]headerspace.Delta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gens := make(map[topology.SwitchID]uint64, len(s.gen))
	for sw, g := range s.gen {
		gens[sw] = g
	}
	deltas := s.deltas
	s.deltas = make(map[topology.SwitchID]headerspace.Delta)
	return s.id, gens, deltas
}

// compileStats returns a copy of the cache counters.
func (s *snapshotStore) compileStats() CompileStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// buildNetwork compiles the current snapshot plus the wiring plan into a
// header-space network for logical verification (§IV-A2). Port numbering:
// headerspace.PortID == physical port number, headerspace.NodeID == switch
// id.
//
// The result is cached: a query against an unchanged snapshot returns the
// previously compiled network without touching a single flow entry, and
// after an incremental change only the switches whose generation advanced
// are recompiled. The returned network is immutable — callers must treat it
// as read-only (headerspace.Network is safe for concurrent readers).
//
// The returned id is the snapshot the network was compiled from, read under
// the same lock as the tables: a verdict computed on the network must carry
// this id, never one read before or after the build, when a concurrent
// event may already have moved the snapshot on.
func (s *snapshotStore) buildNetwork(topo *topology.Topology) (*headerspace.Network, uint64) {
	type compileJob struct {
		id      topology.SwitchID
		gen     uint64
		entries []openflow.FlowEntry
		ports   []uint32
	}

	s.mu.Lock()
	if s.cachedFor != topo {
		// Topology changed identity (different deployment): every cached
		// compilation is for the wrong wiring plan.
		s.compiled = make(map[topology.SwitchID]compiledSwitch)
		s.cachedNet = nil
		s.cachedFor = topo
	}
	if s.cachedNet != nil && s.cachedID == s.id {
		s.stats.NetworkHits++
		net, id := s.cachedNet, s.cachedID
		s.mu.Unlock()
		return net, id
	}
	s.stats.NetworkBuilds++
	builtID := s.id
	reuse := make(map[topology.SwitchID]*headerspace.TransferFunction)
	var jobs []compileJob
	for _, sw := range topo.Switches() {
		if cs, ok := s.compiled[sw]; ok && cs.gen == s.gen[sw] {
			s.stats.SwitchReuses++
			reuse[sw] = cs.tf
			continue
		}
		s.stats.SwitchCompiles++
		ports := s.ports[sw]
		if ports == nil {
			for p := topology.PortNo(1); p <= topo.PortCount(sw); p++ {
				ports = append(ports, uint32(p))
			}
		}
		jobs = append(jobs, compileJob{
			id:      sw,
			gen:     s.gen[sw],
			entries: append([]openflow.FlowEntry(nil), s.tables[sw]...),
			ports:   ports,
		})
	}
	s.mu.Unlock()

	// Compile outside the lock so the monitor ingestion path is never
	// blocked behind rule compilation.
	fresh := make(map[topology.SwitchID]compiledSwitch, len(jobs))
	for _, j := range jobs {
		fresh[j.id] = compiledSwitch{gen: j.gen, tf: openflow.BuildTransferFunction(j.entries, j.ports)}
	}

	net := headerspace.NewNetwork(wire.HeaderWidth)
	for sw, tf := range reuse {
		// Width is fixed by construction; AddNode cannot fail.
		_ = net.AddNode(headerspace.NodeID(sw), tf)
	}
	for sw, cs := range fresh {
		_ = net.AddNode(headerspace.NodeID(sw), cs.tf)
	}
	for _, l := range topo.Links() {
		net.AddDuplex(
			headerspace.NodeID(l.A.Switch), headerspace.PortID(l.A.Port),
			headerspace.NodeID(l.B.Switch), headerspace.PortID(l.B.Port),
		)
	}

	s.mu.Lock()
	if s.cachedFor == topo {
		// Publish per-switch compilations tagged with the generation they
		// were read at: if a switch changed while we compiled, its stored
		// gen is stale and the next build recompiles it.
		for sw, cs := range fresh {
			if cur, ok := s.compiled[sw]; !ok || cur.gen <= cs.gen {
				s.compiled[sw] = cs
			}
		}
		// Only publish the assembled network if nothing changed mid-build;
		// otherwise the next query rebuilds (cheaply, from cached TFs).
		if builtID == s.id {
			s.cachedNet = net
			s.cachedID = builtID
		}
	}
	s.mu.Unlock()
	return net, builtID
}
