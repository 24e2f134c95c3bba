package rvaas

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/openflow"
	"repro/internal/topology"
	"repro/internal/verifier"
	"repro/internal/wire"
)

// bareController builds a Controller with just enough state to exercise
// the snapshot/monitor plumbing without sessions or an enclave.
func bareController() *Controller {
	c := &Controller{
		cfg:         Config{Clock: time.Now},
		snap:        newSnapshotStore(),
		hist:        history.NewStore(16),
		vlog:        history.NewViolationLog(16),
		lastGen:     make(map[topology.SwitchID]uint64),
		subKick:     make(chan struct{}, 1),
		sessions:    make(map[topology.SwitchID]*session),
		resyncing:   make(map[topology.SwitchID]bool),
		evHigh:      make(map[topology.SwitchID]uint64),
		staleEvents: make(map[topology.SwitchID]int),
		stalePolls:  make(map[topology.SwitchID]int),
		wasAttached: make(map[topology.SwitchID]bool),
	}
	c.engine = verifier.New(verifierEnv{c})
	return c
}

func monEntry(ip uint32) openflow.FlowEntry {
	return openflow.FlowEntry{
		Priority: 10,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(ip), Mask: 0xFFFFFFFF},
		}},
		Actions: []openflow.Action{openflow.Output(2)},
	}
}

// TestPollGapsAreRandom: with a fixed seed the active poller's gaps are not
// a fixed period a provider could time a reconfiguration against (§IV-A),
// and every gap stays in [I/2, 3I/2] around the mean period I.
func TestPollGapsAreRandom(t *testing.T) {
	const interval = 100 * time.Millisecond
	c := bareController()
	c.cfg.PollInterval = interval
	c.rng = rand.New(rand.NewSource(7))
	distinct := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		gap := c.nextPollGap()
		if gap < interval/2 || gap > 3*interval/2 {
			t.Fatalf("gap %d = %s, outside [%s, %s]", i, gap, interval/2, 3*interval/2)
		}
		distinct[gap] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("64 poll gaps took %d distinct value(s): the poller is periodic", len(distinct))
	}
}

// TestStaleReplyRejectedOnce verifies a single late full-state reply
// (sequence behind the store) is dropped without rolling the switch back.
func TestStaleReplyRejectedOnce(t *testing.T) {
	c := bareController()
	fresh := []openflow.FlowEntry{monEntry(0x0A000001), monEntry(0x0A000002)}
	c.snap.replaceState(1, fresh, nil, nil, 100, false)

	old := &openflow.StatsReply{Entries: []openflow.FlowEntry{monEntry(0x0A000009)}, TableSeq: 50}
	c.applyStats(1, old, history.SourceActivePoll, false)
	if got := c.snap.seqOf(1); got != 100 {
		t.Fatalf("seq rolled back to %d by a stale reply", got)
	}
	if got := len(c.snap.table(1)); got != 2 {
		t.Fatalf("table overwritten by stale reply: %d entries", got)
	}
}

// TestSequenceRegressionSelfHeals verifies the switch-restart path: when a
// switch's counter genuinely regresses, repeated "stale" replies are
// eventually force-accepted instead of freezing the snapshot on
// pre-restart state forever.
func TestSequenceRegressionSelfHeals(t *testing.T) {
	c := bareController()
	c.snap.replaceState(1, []openflow.FlowEntry{monEntry(0x0A000001)}, nil, nil, 100, false)

	// The switch restarted: its tables changed and TableSeq restarted low.
	restarted := &openflow.StatsReply{Entries: []openflow.FlowEntry{monEntry(0x0A000042)}, TableSeq: 3}
	for i := 0; i < stalePollForceThreshold; i++ {
		c.applyStats(1, restarted, history.SourceActivePoll, false)
	}
	if got := c.snap.seqOf(1); got != 3 {
		t.Fatalf("seq = %d after %d consistent regressed polls, want re-based 3", got, stalePollForceThreshold)
	}
	tbl := c.snap.table(1)
	if len(tbl) != 1 || tbl[0].Match.Fields[0].Value != 0x0A000042 {
		t.Fatalf("snapshot not re-based on post-restart state: %+v", tbl)
	}
	// After re-basing, the restarted switch's event stream applies cleanly.
	if _, ok, _ := c.snap.applyEvent(1, &openflow.FlowMonitorReply{
		Seq: 4, Kind: openflow.FlowEventAdded, Entry: monEntry(0x0A000043),
	}); !ok {
		t.Fatal("post-restart event rejected after re-base")
	}
}

// TestStaleEventStreakTriggersForcedResync verifies a long run of
// already-superseded events (the restart signature on the passive path)
// schedules a forced resync instead of dropping state changes forever.
func TestStaleEventStreakTriggersForcedResync(t *testing.T) {
	c := bareController()
	c.snap.replaceState(1, nil, nil, nil, 100, false)

	before := c.Stats().Resyncs
	for i := 0; i < staleEventResyncThreshold; i++ {
		c.handleMonitorEvent(1, &openflow.FlowMonitorReply{Seq: uint64(i + 1), Kind: openflow.FlowEventAdded, Entry: monEntry(1)})
	}
	// forceResync was spawned (its poll fails — no session — which must
	// clear the dedup flag, not wedge it).
	if got := c.Stats().Resyncs; got != before+1 {
		t.Fatalf("resyncs = %d, want %d (one forced resync)", got, before+1)
	}
	c.wg.Wait()
	c.mu.Lock()
	wedged := c.resyncing[1]
	c.mu.Unlock()
	if wedged {
		t.Fatal("resyncing flag wedged after failed forced poll")
	}
}

// TestGapResyncRetriesLostPoll: a gap resync whose poll goes unanswered, as
// when a lossy channel drops the request or its reply, polls again while
// the switch is attached instead of leaving the snapshot behind the event
// stream until some later event happens to reveal the gap again.
func TestGapResyncRetriesLostPoll(t *testing.T) {
	ca, err := openflow.NewCA()
	if err != nil {
		t.Fatal(err)
	}
	ctlID, err := openflow.NewIdentity("controller")
	if err != nil {
		t.Fatal(err)
	}
	swID, err := openflow.NewIdentity("switch-1")
	if err != nil {
		t.Fatal(err)
	}
	ctlConn, swConn, err := openflow.ConnectSecure(ctlID, ca.Issue(ctlID), swID, ca.Issue(swID), ca.Pub)
	if err != nil {
		t.Fatal(err)
	}
	c := bareController()
	c.waiters = make(map[waiterKey]chan openflow.Message)
	c.stop = make(chan struct{})
	sess := &session{sw: 1, conn: ctlConn, done: make(chan struct{})}
	c.sessions[1] = sess
	c.snap.replaceState(1, nil, nil, nil, 1, false)
	c.wg.Add(1)
	go c.readLoop(sess)
	// The switch loses the first poll and answers the next with the state
	// the event stream announced.
	go func() {
		polls := 0
		for {
			m, err := swConn.Recv()
			if err != nil {
				return
			}
			req, ok := m.(*openflow.StatsRequest)
			if !ok {
				continue
			}
			if polls++; polls == 1 {
				continue
			}
			_ = swConn.Send(&openflow.StatsReply{XID: req.XID, Entries: []openflow.FlowEntry{monEntry(0x0A000001)}, TableSeq: 3})
		}
	}()

	c.handleMonitorEvent(1, &openflow.FlowMonitorReply{Seq: 3, Kind: openflow.FlowEventAdded, Entry: monEntry(0x0A000001)})
	deadline := time.Now().Add(10 * time.Second)
	for c.snap.seqOf(1) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("snapshot never caught up: the gap resync gave up after one lost poll")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(c.stop)
	ctlConn.Close()
	swConn.Close()
	c.wg.Wait()
}
