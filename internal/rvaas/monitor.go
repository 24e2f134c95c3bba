package rvaas

import (
	"sort"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/openflow"
	"repro/internal/topology"
)

// Monitoring self-healing thresholds.
const (
	// maxGapResyncAttempts bounds the catch-up loop after an event gap: a
	// lying switch advertising an inflated event sequence must not be able
	// to pin the controller in a poll loop.
	maxGapResyncAttempts = 3
	// staleEventResyncThreshold is the number of consecutive
	// already-superseded events after which the switch's sequence counter
	// is presumed to have regressed (restart) and a forced resync makes
	// the switch authoritative again. Legitimate stale events (overtaken
	// by one resync) come in short bursts.
	staleEventResyncThreshold = 8
	// stalePollForceThreshold is the number of consecutive rejected
	// full-state replies — with no applied events or accepted replies in
	// between — after which the reply is force-accepted: one rejection is
	// a late stray answer, two distinct polls both behind a silent store
	// mean the switch really regressed.
	stalePollForceThreshold = 2
)

// handleMonitorEvent applies one passive flow-monitor event. Sequence gaps
// (lost events) force a full resync of that switch — RVaaS "needs to ensure
// that it receives all the relevant updates from the switches" (§IV-A).
// Events already superseded by a newer full snapshot (a resync overtook
// them) are dropped silently: their effect is in the snapshot. A long run
// of "stale" events means the switch's counter regressed (restart) — then
// a forced resync re-bases on the switch's authoritative state.
func (c *Controller) handleMonitorEvent(sw topology.SwitchID, ev *openflow.FlowMonitorReply) {
	c.mu.Lock()
	c.stats.PassiveEvents++
	c.mu.Unlock()
	cap, ok, stale := c.snap.applyEvent(sw, ev)
	if ok {
		c.mu.Lock()
		c.staleEvents[sw] = 0
		// An applied event proves the event stream is live and in order:
		// any earlier rejected poll reply was a stray late answer, not
		// evidence of a sequence regression. Without this reset, two
		// rejected polls separated by healthy churn would force-accept a
		// rollback.
		c.stalePolls[sw] = 0
		c.mu.Unlock()
		c.recordHistory(history.SourcePassive, cap)
		return
	}
	if stale {
		c.mu.Lock()
		c.staleEvents[sw]++
		regressed := c.staleEvents[sw] >= staleEventResyncThreshold
		if regressed {
			c.staleEvents[sw] = 0
		}
		c.mu.Unlock()
		if regressed {
			c.forceResync(sw)
		}
		return
	}
	c.mu.Lock()
	c.staleEvents[sw] = 0
	c.mu.Unlock()
	c.noteGap(sw, ev.Seq)
}

// noteGap schedules a resync of one switch after a detected event gap. At
// most one resync loop runs per switch: concurrent gaps (e.g. the burst of
// events racing the initial sync at attach time) fold into the running
// loop, which re-polls (boundedly) until the snapshot has caught up with
// the highest event sequence seen. Without the dedup, every event behind a
// gap spawned its own poll, and the stale replies re-manufactured gaps ad
// infinitum.
func (c *Controller) noteGap(sw topology.SwitchID, seq uint64) {
	c.mu.Lock()
	if seq > c.evHigh[sw] {
		c.evHigh[sw] = seq
	}
	if c.resyncing[sw] {
		c.mu.Unlock()
		return
	}
	c.resyncing[sw] = true
	c.stats.Resyncs++
	c.mu.Unlock()
	// Resync asynchronously: pollSwitch waits for a reply that arrives on
	// the very read loop this handler runs in, so it must not block here.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for attempt := 0; ; attempt++ {
			err := c.pollSwitchMode(sw, 2*time.Second, false)
			c.mu.Lock()
			caughtUp := err == nil && c.snap.seqOf(sw) >= c.evHigh[sw]
			// A poll lost on a lossy channel is retried like one that has
			// not caught up yet; a switch whose session is gone is not.
			_, attached := c.sessions[sw]
			if caughtUp || !attached || attempt >= maxGapResyncAttempts {
				if !caughtUp && err == nil {
					// The switch's authoritative TableSeq never reached
					// the advertised event sequence (forged or inflated
					// Seq): accept the switch's own counter instead of
					// hot-looping on an unreachable target.
					c.evHigh[sw] = c.snap.seqOf(sw)
				}
				c.resyncing[sw] = false
				c.mu.Unlock()
				return
			}
			c.stats.Resyncs++
			c.mu.Unlock()
		}
	}()
}

// forceResync re-bases one switch's snapshot on its authoritative state,
// bypassing staleness protection — used after repeated evidence of a
// sequence regression (switch restart).
func (c *Controller) forceResync(sw topology.SwitchID) {
	c.mu.Lock()
	if c.resyncing[sw] {
		c.mu.Unlock()
		return
	}
	c.resyncing[sw] = true
	c.stats.Resyncs++
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = c.pollSwitchMode(sw, 2*time.Second, true)
		c.mu.Lock()
		c.evHigh[sw] = c.snap.seqOf(sw)
		c.resyncing[sw] = false
		c.mu.Unlock()
	}()
}

// applyStats installs a full-state snapshot for one switch. A resync that
// matches the stored state bit for bit records nothing: the snapshot id
// did not advance, so appending would duplicate history ids, and standing
// invariants have nothing to re-verify. A reply behind the store's
// sequence is rejected once as a stray late answer; repeated rejections
// mean the switch's counter regressed (restart) and the reply is
// force-accepted so the snapshot can never freeze on pre-restart state.
func (c *Controller) applyStats(sw topology.SwitchID, m *openflow.StatsReply, src history.Source, force bool) {
	// A StatsReply is a FULL state snapshot: it always carries the meter
	// section, so an absent slice here means "the switch has zero meters",
	// not "unknown". The wire codec decodes an empty section to nil —
	// without this normalization, replaceState's nil-means-keep rule
	// (which exists for table-only resyncs) would make a meter deletion
	// invisible to polls forever.
	meters := m.Meters
	if meters == nil {
		meters = []openflow.MeterConfig{}
	}
	cap, changed, rejected := c.snap.replaceState(sw, m.Entries, m.Ports, meters, m.TableSeq, force)
	if rejected {
		c.mu.Lock()
		c.stalePolls[sw]++
		regressed := c.stalePolls[sw] >= stalePollForceThreshold
		if regressed {
			c.stalePolls[sw] = 0
		}
		c.mu.Unlock()
		if !regressed {
			return
		}
		cap, changed, _ = c.snap.replaceState(sw, m.Entries, m.Ports, meters, m.TableSeq, true)
	} else {
		c.mu.Lock()
		c.stalePolls[sw] = 0
		c.mu.Unlock()
	}
	if changed {
		c.recordHistory(src, cap)
	}
}

// recordHistory appends one applied change to the history ring. The capture
// was taken atomically with the mutation, so concurrent appliers (parallel
// polls, passive events) each record the id/tables pair of exactly their
// own change — no ids are duplicated or skipped. Every applied change also
// nudges the subscription worker: standing invariants re-verify against
// the new snapshot instead of waiting for the client's next poll.
func (c *Controller) recordHistory(src history.Source, cap capture) {
	c.hist.Append(history.Record{
		At:         c.cfg.Clock(),
		SnapshotID: cap.id,
		Source:     src,
		Tables:     cap.tables,
	})
	c.tapCommittedEvent(src, cap)
	c.pokeSubscriptions()
}

// pollSwitch actively fetches one switch's full state and waits for it.
func (c *Controller) pollSwitch(sw topology.SwitchID, timeout time.Duration) error {
	return c.pollSwitchMode(sw, timeout, false)
}

// pollSwitchMode is pollSwitch with control over staleness forcing (used
// by forced resyncs after a detected sequence regression).
func (c *Controller) pollSwitchMode(sw topology.SwitchID, timeout time.Duration, force bool) error {
	xid := c.xid()
	reply, err := c.request(sw, &openflow.StatsRequest{XID: xid}, xid, timeout)
	if err != nil {
		return err
	}
	stats, ok := reply.(*openflow.StatsReply)
	if !ok {
		return errUnexpectedReply
	}
	c.applyStats(sw, stats, history.SourceActivePoll, force)
	return nil
}

var errUnexpectedReply = errTyped("rvaas: unexpected reply type")

type errTyped string

func (e errTyped) Error() string { return string(e) }

// PollAll actively polls every attached switch and waits for all replies
// (the paper's "proactively query the switches for their current
// configuration"). The polls run concurrently — each is an independent
// request/reply on its own switch session, so the wall-clock cost is the
// slowest switch, not the sum. It returns the first error encountered (in
// switch order) but polls every switch regardless.
func (c *Controller) PollAll(timeout time.Duration) error {
	c.mu.Lock()
	c.stats.ActivePolls++
	switches := make([]topology.SwitchID, 0, len(c.sessions))
	for sw := range c.sessions {
		switches = append(switches, sw)
	}
	c.mu.Unlock()
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	errs := make([]error, len(switches))
	var wg sync.WaitGroup
	wg.Add(len(switches))
	for i, sw := range switches {
		go func(i int, sw topology.SwitchID) {
			defer wg.Done()
			errs[i] = c.pollSwitch(sw, timeout)
		}(i, sw)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FlapEvidence scans the retained history for rules that appeared and
// disappeared within maxLifetime — the fingerprint of a short-term
// reconfiguration attack (§IV-A).
func (c *Controller) FlapEvidence(maxLifetime time.Duration) []history.Churn {
	return c.hist.ChurnEvents(maxLifetime)
}
