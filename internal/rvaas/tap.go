package rvaas

import (
	"repro/internal/history"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/verifier"
)

// TapEvent is one commit: switch Switch's committed state at snapshot id
// SnapshotID, copied under the same lock acquisition as the mutation
// itself. It is the one record the snapshot store hands out: the history
// ring keeps its entries, the event tap observes it, and ExportState lists
// one per switch. A differential oracle (internal/campaign) feeds the tap
// stream to a shadow controller via ReplayState so the reference
// re-verifies exactly the committed event order — not a re-read of live
// state that concurrent mutators may have moved past. The slices are
// shared with the history ring: read them, never modify them.
type TapEvent struct {
	Switch     topology.SwitchID
	Source     history.Source
	SnapshotID uint64
	// Seq is the switch's flow-monitor event sequence as of this commit.
	Seq     uint64
	Entries []openflow.FlowEntry
	Ports   []uint32
	Meters  []openflow.MeterConfig
}

// SetEventTap installs fn to observe every committed snapshot mutation
// (passive event, active poll, detach wipe, replay). fn runs on the
// committing goroutine — keep it cheap and never call back into the
// controller from it. nil removes the tap.
func (c *Controller) SetEventTap(fn func(TapEvent)) {
	c.tapMu.Lock()
	c.eventTap = fn
	c.tapMu.Unlock()
}

// SetCommitTap installs fn to intercept every verdict-transition commit
// before it is logged and notified. fn may mutate the transition in place —
// this is the adversarial-campaign hook for modelling a Byzantine
// controller component corrupting the client-visible verdict stream (the
// differential oracle must catch the corruption). nil removes the tap.
func (c *Controller) SetCommitTap(fn func(*verifier.Transition)) {
	c.tapMu.Lock()
	c.commitTap = fn
	c.tapMu.Unlock()
}

// tapCommittedEvent hands one commit to the event tap, if any.
func (c *Controller) tapCommittedEvent(ev TapEvent) {
	c.tapMu.RLock()
	fn := c.eventTap
	c.tapMu.RUnlock()
	if fn != nil {
		fn(ev)
	}
}

// tapTransition lets the commit tap observe/corrupt one verdict transition.
func (c *Controller) tapTransition(t *verifier.Transition) {
	c.tapMu.RLock()
	fn := c.commitTap
	c.tapMu.RUnlock()
	if fn != nil {
		fn(t)
	}
}

// ReplayState force-installs one switch's full committed state, exactly as
// captured by an event tap on another controller. It is the shadow-oracle
// ingestion path: the shadow controller has no attached switches and learns
// the network solely through replayed taps, so its standing invariants
// re-verify against byte-identical snapshots in the identical committed
// order. force semantics bypass staleness rejection (the primary already
// arbitrated event ordering). Returns whether the state differed.
func (c *Controller) ReplayState(sw topology.SwitchID, src history.Source, entries []openflow.FlowEntry, ports []uint32, meters []openflow.MeterConfig, seq uint64) bool {
	if entries == nil {
		entries = []openflow.FlowEntry{}
	}
	ev, changed, _ := c.snap.replaceState(sw, entries, ports, meters, seq, true)
	if changed {
		c.recordHistory(src, ev)
	}
	return changed
}

// ReplayTap is ReplayState in terms of a captured TapEvent.
func (c *Controller) ReplayTap(ev TapEvent) bool {
	return c.ReplayState(ev.Switch, ev.Source, ev.Entries, ev.Ports, ev.Meters, ev.Seq)
}

// ExportState returns every seen switch's committed state as replayable
// tap events, in switch order and mutually consistent (one lock
// acquisition). A differential oracle replays this baseline into its
// shadow controller before live tap events take over.
func (c *Controller) ExportState() []TapEvent {
	evs := c.snap.exportAll()
	for i := range evs {
		evs[i].Source = history.SourceActivePoll
	}
	return evs
}

// SnapshotSeq returns the last committed flow-monitor event sequence for
// one switch — the settle barrier adversarial campaigns use to decide the
// controller has ingested everything the data plane emitted.
func (c *Controller) SnapshotSeq(sw topology.SwitchID) uint64 {
	return c.snap.seqOf(sw)
}
