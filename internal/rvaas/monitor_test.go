package rvaas

import (
	"math/rand"
	"slices"
	"sync"
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
		wasAttached: make(map[topology.SwitchID]bool),
	}
	c.engine = verifier.New(verifierEnv{c})
	return c
}

// installSession makes a channel-less session sw's current one, so input
// applied through it passes the session check. Cleanup removes it before
// any Controller.Close registered earlier runs.
func installSession(t *testing.T, c *Controller, sw topology.SwitchID) *session {
	t.Helper()
	sess := &session{sw: sw}
	c.mu.Lock()
	c.sessions[sw] = sess
	c.mu.Unlock()
	t.Cleanup(func() {
		c.mu.Lock()
		delete(c.sessions, sw)
		c.mu.Unlock()
	})
	return sess
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

// TestStaleInputNeverRollsBack: within one session a full-state reply or
// an event behind the snapshot is late — events overtook it on the channel
// — however many arrive in a row. A switch whose counter restarted arrives
// through a new Attach instead (TestRestartedSwitchRebasesOnAttach), so no
// streak of stale input may roll the snapshot back or start a resync.
func TestStaleInputNeverRollsBack(t *testing.T) {
	c := bareController()
	sess := installSession(t, c, 1)
	fresh := []openflow.FlowEntry{monEntry(0x0A000001), monEntry(0x0A000002)}
	c.snap.replaceState(1, fresh, nil, nil, 100, false)
	id := c.SnapshotID()

	late := &openflow.StatsReply{Entries: []openflow.FlowEntry{monEntry(0x0A000009)}, TableSeq: 50}
	c.applyStats(sess, late, false)
	c.applyStats(sess, late, false)
	for i := 0; i < 10; i++ {
		c.handleMonitorEvent(sess, &openflow.FlowMonitorReply{Seq: uint64(91 + i), Kind: openflow.FlowEventAdded, Entry: monEntry(0x0A000010)})
	}
	c.wg.Wait()
	if got := c.snap.seqOf(1); got != 100 {
		t.Fatalf("seq = %d after stale input, want 100", got)
	}
	if tbl := c.snap.table(1); !slices.EqualFunc(tbl, fresh, openflow.FlowEntry.Equal) {
		t.Fatalf("table rolled back by stale input: %+v", tbl)
	}
	if got := c.SnapshotID(); got != id {
		t.Fatalf("snapshot id %d -> %d on stale input", id, got)
	}
	if st := c.Stats(); st.Resyncs != 0 || st.PassiveEvents != 10 {
		t.Fatalf("stats = %+v, want 10 passive events and no resync", st)
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

	c.handleMonitorEvent(sess, &openflow.FlowMonitorReply{Seq: 3, Kind: openflow.FlowEventAdded, Entry: monEntry(0x0A000001)})
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

// TestCommitCopiesOneSwitch: a commit copies only the switch it changed,
// for the history ring and the event tap alike, so the cost of one passive
// event does not grow with the number of switches in the snapshot.
func TestCommitCopiesOneSwitch(t *testing.T) {
	allocs := func(nSwitches int) float64 {
		c := bareController()
		for i := 1; i <= nSwitches; i++ {
			base := 0x0A000000 + uint32(i)<<8
			c.snap.replaceState(topology.SwitchID(i), []openflow.FlowEntry{monEntry(base + 1), monEntry(base + 2)}, nil, nil, 1, false)
		}
		sess := installSession(t, c, 1)
		seq, e := uint64(1), monEntry(0x0A0000FF)
		return testing.AllocsPerRun(200, func() {
			seq++
			c.handleMonitorEvent(sess, &openflow.FlowMonitorReply{Seq: seq, Kind: openflow.FlowEventAdded, Entry: e})
			seq++
			c.handleMonitorEvent(sess, &openflow.FlowMonitorReply{Seq: seq, Kind: openflow.FlowEventRemoved, Entry: e})
		})
	}
	if small, large := allocs(2), allocs(40); large != small {
		t.Errorf("two passive events allocate %.0f times on a 40-switch snapshot, %.0f on a 2-switch one", large, small)
	}
}

// TestConcurrentCommitsTapAndChurn: committers on several switches race
// one another and readers of the history and the export. Every commit
// reaches the tap once with its own snapshot id, and the history, folded
// in commit order, reports each installed-then-removed rule exactly once
// and nothing that is still installed.
func TestConcurrentCommitsTapAndChurn(t *testing.T) {
	const nSwitches, pairs = 6, 25
	c := bareController()
	c.hist = history.NewStore(2 * nSwitches * pairs)
	for i := 1; i <= nSwitches; i++ {
		c.snap.replaceState(topology.SwitchID(i), []openflow.FlowEntry{monEntry(0x0A000000 + uint32(i))}, nil, nil, 1, false)
	}
	var (
		mu   sync.Mutex
		seen = map[uint64]bool{}
	)
	c.SetEventTap(func(ev TapEvent) {
		mu.Lock()
		defer mu.Unlock()
		if seen[ev.SnapshotID] {
			t.Errorf("snapshot id %d tapped twice", ev.SnapshotID)
		}
		seen[ev.SnapshotID] = true
	})
	var wg, readers sync.WaitGroup
	done := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
				c.FlapEvidence()
				c.ExportState()
			}
		}
	}()
	for i := 1; i <= nSwitches; i++ {
		sess := installSession(t, c, topology.SwitchID(i))
		flappy := monEntry(0x0B000000 + uint32(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := uint64(2); seq < 2+2*pairs; seq += 2 {
				c.handleMonitorEvent(sess, &openflow.FlowMonitorReply{Seq: seq, Kind: openflow.FlowEventAdded, Entry: flappy})
				c.handleMonitorEvent(sess, &openflow.FlowMonitorReply{Seq: seq + 1, Kind: openflow.FlowEventRemoved, Entry: flappy})
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()

	if len(seen) != 2*nSwitches*pairs {
		t.Fatalf("%d commits tapped, want %d", len(seen), 2*nSwitches*pairs)
	}
	churn := c.FlapEvidence()
	perSwitch := map[uint32]int{}
	for _, ch := range churn {
		perSwitch[uint32(ch.Entry.Match.Fields[0].Value)-0x0B000000]++
	}
	if len(churn) != nSwitches*pairs || len(perSwitch) != nSwitches {
		t.Fatalf("%d churn events over %d switches, want %d flaps on each of %d", len(churn), len(perSwitch), pairs, nSwitches)
	}
	for sw, n := range perSwitch {
		if n != pairs {
			t.Errorf("switch %d: %d churn events, want %d", sw, n, pairs)
		}
	}
	for _, ev := range c.ExportState() {
		if len(ev.Entries) != 1 || ev.Seq != 1+2*pairs {
			t.Errorf("switch %d exported %d entries at seq %d, want its one stable rule at seq %d", ev.Switch, len(ev.Entries), ev.Seq, 1+2*pairs)
		}
	}
}
