package deploy

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/wire"
)

func TestDeployLifecycle(t *testing.T) {
	topo, err := topology.Linear(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Agents) != 3 {
		t.Errorf("agents = %d", len(d.Agents))
	}
	if d.Agent(1) == nil || d.Agent(99) != nil {
		t.Error("Agent lookup wrong")
	}
	// Double close must be safe.
	d.Close()
	d.Close()
}

func TestDeploySkipOptions(t *testing.T) {
	topo, err := topology.Linear(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(topo, Options{SkipAgents: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if len(d.Agents) != 0 {
		t.Error("agents created despite SkipAgents")
	}
}

func TestDeploySharedClientAgents(t *testing.T) {
	topo, err := topology.Linear(4, []uint64{1, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(topo, Options{TenantRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if len(d.Agents) != 2 {
		t.Fatalf("agents = %d, want 2 (one per client)", len(d.Agents))
	}
}

func TestDeployBackgroundPoller(t *testing.T) {
	topo, err := topology.Linear(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(topo, Options{
		PollInterval: 20 * time.Millisecond,
		SkipAgents:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d.RVaaS.Stats().ActivePolls >= 2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("background poller inactive: %+v", d.RVaaS.Stats())
}

func TestDeployConcurrentQueries(t *testing.T) {
	topo, err := topology.Linear(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	aps := topo.AccessPoints()

	var wg sync.WaitGroup
	errs := make(chan error, len(aps)*3)
	for round := 0; round < 3; round++ {
		for i, ap := range aps {
			wg.Add(1)
			go func(clientID uint64, dst topology.AccessPoint) {
				defer wg.Done()
				agent := d.Agent(clientID)
				_, err := agent.Query(wire.QueryReachableDestinations, []wire.FieldConstraint{
					{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF},
				}, "")
				if err != nil {
					errs <- err
				}
			}(ap.ClientID, aps[(i+1)%len(aps)])
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query: %v", err)
	}
	if got := d.RVaaS.Stats().QueriesServed; got != uint64(len(aps)*3) {
		t.Errorf("queries served = %d, want %d", got, len(aps)*3)
	}
}

// TestRestartReattestsOncePerEnclave: a restarted controller is a new
// enclave with a new key. The agent's memoised quote does not survive the
// re-pin — the new instance's first message costs exactly one root-key
// quote check, the rest none — and what the old instance signed is no
// longer accepted.
func TestRestartReattestsOncePerEnclave(t *testing.T) {
	topo, err := topology.Linear(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := rvaas.OpenFileStore(filepath.Join(t.TempDir(), "subs.log"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(topo, Options{Persist: store})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	aps := topo.AccessPoints()
	ap, dst := aps[0], aps[1]
	ag := d.Agent(ap.ClientID)

	// Tap the agent's NIC: keep every pushed batch (one transition each, so
	// one unchunked frame).
	var mu sync.Mutex
	var pushed []*wire.Packet
	deliver := ag.HandlerFor(ap)
	if err := d.Fabric.AttachHost(ap.Endpoint, func(pkt *wire.Packet) {
		if pkt.IsRVaaSV2Reply() {
			if env, err := wire.UnmarshalEnvelope(pkt.Payload); err == nil && env.Op == wire.OpNotifyBatch {
				mu.Lock()
				pushed = append(pushed, pkt.Clone())
				mu.Unlock()
			}
		}
		deliver(pkt)
	}); err != nil {
		t.Fatal(err)
	}

	sub, err := ag.Subscribe(wire.QueryReachableDestinations, []wire.FieldConstraint{
		{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	flip := func() *wire.Notification {
		t.Helper()
		seq++
		if seq%2 == 1 {
			d.Provider.UninstallDestination(dst.HostIP)
		} else if err := d.Provider.InstallDestinationTree(dst); err != nil {
			t.Fatal(err)
		}
		select {
		case n := <-sub.C:
			if n.Seq != seq {
				t.Fatalf("push seq = %d, want %d", n.Seq, seq)
			}
			return n
		case <-time.After(5 * time.Second):
			t.Fatalf("transition %d not delivered", seq)
			return nil
		}
	}
	flip()
	flip()
	if got := ag.QuoteVerifications(); got != 1 {
		t.Fatalf("QuoteVerifications = %d before any restart, want 1", got)
	}
	mu.Lock()
	old := pushed[0]
	mu.Unlock()
	env, err := wire.UnmarshalEnvelope(old.Payload)
	if err != nil {
		t.Fatal(err)
	}
	oldNote, err := wire.UnmarshalNotifyBatch(env.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oldNote.Quote, d.RVaaS.KeyQuote().Marshal()) {
		t.Fatal("pushed batch does not carry the controller's key quote verbatim")
	}

	for restart := uint64(1); restart <= 2; restart++ {
		if err := d.RestartRVaaS(); err != nil {
			t.Fatal(err)
		}
		if n := flip(); bytes.Equal(n.Quote, oldNote.Quote) {
			t.Fatal("restarted controller presents the previous enclave's quote")
		}
		flip()
		if got := ag.QuoteVerifications(); got != 1+restart {
			t.Fatalf("QuoteVerifications = %d after %d restart(s), want %d", got, restart, 1+restart)
		}
	}

	// Replay the first instance's genuine push: its quote commits to a key
	// that is no longer pinned, so the attestation check (one more quote
	// verification) rejects it before its signature is even looked at. (Seq
	// replay protection would drop it too, and would count it; the
	// attestation failure comes first.)
	dropped, sigs := ag.NotificationsDropped(), ag.SignatureVerifications()
	deliver(old)
	select {
	case n := <-sub.C:
		t.Fatalf("replayed pre-restart notification delivered: %+v", n)
	default:
	}
	if ag.NotificationsDropped() != dropped || ag.SignatureVerifications() != sigs {
		t.Fatal("replayed pre-restart notification got past the attestation check")
	}
	flip() // and the failed check did not unseat the current quote
	if got := ag.QuoteVerifications(); got != 4 {
		t.Fatalf("QuoteVerifications = %d, want 4 (3 enclaves + 1 rejected replay)", got)
	}
}
