package rvaas

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/openflow"
)

// maxGapResyncAttempts bounds the catch-up loop after an event gap: a lying
// switch advertising an inflated event sequence must not be able to pin the
// controller in a poll loop.
const maxGapResyncAttempts = 3

// handleMonitorEvent applies one passive flow-monitor event read on sess.
// Sequence gaps (lost events) start a resync of the switch — RVaaS "needs
// to ensure that it receives all the relevant updates from the switches"
// (§IV-A). An event at or behind the snapshot's sequence is dropped: within
// one session it can only have been overtaken by a full-state reply that
// already holds its effect. Input from a session that is no longer its
// switch's is dropped too; the check and the apply share one lock with
// Attach and Detach, so it never lands on a successor's state.
func (c *Controller) handleMonitorEvent(sess *session, ev *openflow.FlowMonitorReply) {
	c.mu.Lock()
	c.stats.PassiveEvents++
	if c.sessions[sess.sw] != sess {
		c.mu.Unlock()
		return
	}
	rec, ok, stale := c.snap.applyEvent(sess.sw, ev)
	gap := !ok && !stale
	if gap {
		sess.evHigh = max(sess.evHigh, ev.Seq)
	}
	c.mu.Unlock()
	if ok {
		c.recordHistory(history.SourcePassive, rec)
	} else if gap {
		c.resync(sess, false)
	}
}

// noteTableSeq checks a heartbeat's report of the switch's table sequence.
// The events up to it were sent ahead of the reply on the same channel and
// read before it, so a snapshot still behind it lost the tail of the
// switch's events, which no later event's Seq gap will reveal: resync.
func (c *Controller) noteTableSeq(sess *session, seq uint64) {
	c.mu.Lock()
	behind := c.sessions[sess.sw] == sess && seq > c.snap.seqOf(sess.sw)
	if behind {
		sess.evHigh = max(sess.evHigh, seq)
	}
	c.mu.Unlock()
	if behind {
		c.resync(sess, false)
	}
}

// resync re-polls one session's switch until the snapshot has caught up
// with the highest event sequence the session announced. Event gaps run it
// unforced; the operator's ForceResync runs it forced, accepting each
// reply even behind the snapshot. At most one loop runs per session:
// concurrent gaps (e.g. the burst of events racing the initial sync at
// attach time) fold into the running loop. Without the dedup, every event
// behind a gap spawned its own poll, and the stale replies re-manufactured
// gaps ad infinitum.
func (c *Controller) resync(sess *session, force bool) {
	c.mu.Lock()
	if sess.resyncing {
		c.mu.Unlock()
		return
	}
	sess.resyncing = true
	c.stats.Resyncs++
	c.mu.Unlock()
	// Resync asynchronously: a poll waits for a reply that arrives on the
	// very read loop a gap is detected in, so it must not block there.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for attempt := 0; ; attempt++ {
			err := c.pollSwitch(sess, 2*time.Second, force)
			c.mu.Lock()
			caughtUp := err == nil && c.snap.seqOf(sess.sw) >= sess.evHigh
			// A poll lost on a lossy channel is retried like one that has
			// not caught up yet; a session that is gone is not.
			current := c.sessions[sess.sw] == sess
			if caughtUp || !current || attempt >= maxGapResyncAttempts {
				if !caughtUp && err == nil {
					// The switch's authoritative TableSeq never reached
					// the advertised event sequence (forged or inflated
					// Seq): accept the switch's own counter instead of
					// hot-looping on an unreachable target.
					sess.evHigh = c.snap.seqOf(sess.sw)
				}
				sess.resyncing = false
				c.mu.Unlock()
				return
			}
			c.stats.Resyncs++
			c.mu.Unlock()
		}
	}()
}

// applyStats installs a full-state reply read on sess. A resync that
// matches the stored state bit for bit records nothing: the snapshot id
// did not advance, so appending would duplicate history ids, and standing
// invariants have nothing to re-verify. A reply behind the snapshot's
// sequence is late (events computed after it overtook it on the channel)
// and is rejected unless force is set; like events, a reply from a session
// that is no longer its switch's is dropped.
func (c *Controller) applyStats(sess *session, m *openflow.StatsReply, force bool) {
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
	c.mu.Lock()
	if c.sessions[sess.sw] != sess {
		c.mu.Unlock()
		return
	}
	rec, changed, _ := c.snap.replaceState(sess.sw, m.Entries, m.Ports, meters, m.TableSeq, force)
	c.mu.Unlock()
	if changed {
		c.recordHistory(history.SourceActivePoll, rec)
	}
}

// recordHistory hands one commit's record to the history ring and the
// event tap: the same copy of the switch's entries, taken atomically with
// the mutation, so concurrent committers (parallel polls, passive events)
// each record exactly their own change, and the ring orders them by
// snapshot id. Every commit also nudges the subscription worker: standing
// invariants re-verify against the new snapshot instead of waiting for
// the client's next poll.
func (c *Controller) recordHistory(src history.Source, ev TapEvent) {
	ev.Source = src
	c.hist.Append(history.Record{
		At:         c.cfg.Clock(),
		SnapshotID: ev.SnapshotID,
		Switch:     ev.Switch,
		Entries:    ev.Entries,
	})
	c.tapCommittedEvent(ev)
	c.pokeSubscriptions()
}

// pollSwitch actively fetches one session's full switch state and waits
// for it; force is applyStats's.
func (c *Controller) pollSwitch(sess *session, timeout time.Duration, force bool) error {
	xid := c.xid()
	reply, err := c.request(sess, &openflow.StatsRequest{XID: xid}, xid, timeout)
	if err != nil {
		return err
	}
	stats, ok := reply.(*openflow.StatsReply)
	if !ok {
		return errUnexpectedReply
	}
	c.applyStats(sess, stats, force)
	return nil
}

var errUnexpectedReply = errors.New("rvaas: unexpected reply type")

// PollAll actively polls every attached switch and waits for all replies
// (the paper's "proactively query the switches for their current
// configuration"). The polls run concurrently — each is an independent
// request/reply on its own switch session, so the wall-clock cost is the
// slowest switch, not the sum. It returns the first error encountered (in
// switch order) but polls every switch regardless.
func (c *Controller) PollAll(timeout time.Duration) error {
	c.mu.Lock()
	c.stats.ActivePolls++
	sessions := make([]*session, 0, len(c.sessions))
	for _, sess := range c.sessions {
		sessions = append(sessions, sess)
	}
	c.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].sw < sessions[j].sw })
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	wg.Add(len(sessions))
	for i, sess := range sessions {
		go func(i int, sess *session) {
			defer wg.Done()
			errs[i] = c.pollSwitch(sess, timeout, false)
		}(i, sess)
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
// later disappeared — the fingerprint of a short-term reconfiguration
// attack (§IV-A), stamped with when each was installed and removed.
func (c *Controller) FlapEvidence() []history.Churn {
	return c.hist.ChurnEvents()
}
