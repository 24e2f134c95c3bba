package rvaas

import (
	"crypto/ed25519"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/verifier"
	"repro/internal/wire"
)

// TestPassDeliversItsPushes: the pass that committed the transitions sends
// their batches itself, so the push counters are final when the flush
// returns — on a controller that was never started, with no goroutine of
// its own to drain anything. Six back-to-back passes of 257 items to one
// stream (a sub-churn flip each) all reach the switch as whole chains; a
// stream whose switch has no session counts its items dropped; and a batch
// of three thousand items goes through whole.
func TestPassDeliversItsPushes(t *testing.T) {
	ctl, dial := switchLab(t, 0)
	sw, err := attachFake(ctl, dial, 1, "switch-1", false)
	if err != nil {
		t.Fatal(err)
	}
	// pass commits n notifying transitions anchored at switch at and ends
	// the pass.
	nextID := uint64(0)
	pass := func(at topology.SwitchID, n int) {
		for i := 0; i < n; i++ {
			nextID++
			ctl.onVerifierCommit(verifier.Transition{
				Sub: &verifier.Subscription{
					ID: nextID, ClientID: 1, SessionID: 1, Kind: wire.QueryReachableDestinations,
					Anchor: verifier.Anchor{Switch: at, Port: 3, MAC: 0xAA, IP: wire.IPv4(10, 0, 1, 1)},
				},
				Violated: true, Detail: "test transition", Seq: 1, SnapshotID: 5, Changed: true, Notify: true,
			})
		}
		ctl.flushOutbox()
	}
	expect := func(when string, sent, dropped, batches uint64) {
		t.Helper()
		st := ctl.SubscriptionStats()
		if st.NotificationsSent != sent || st.NotificationsDropped != dropped || st.NotifyBatches != batches {
			t.Fatalf("%s: sent %d, dropped %d in %d batches; want %d, %d, %d", when,
				st.NotificationsSent, st.NotificationsDropped, st.NotifyBatches, sent, dropped, batches)
		}
	}
	// received waits for the switch to have read want whole chains and
	// returns the item count of each, in arrival order.
	received := func(want int) []int {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			sizes := chainsOf(t, ctl.enclave.PublicKey(), sw.packetOuts())
			if len(sizes) >= want {
				return sizes
			}
			if time.Now().After(deadline) {
				t.Fatalf("switch received %d whole chain(s), want %d", len(sizes), want)
			}
		}
	}

	const batch, passes = 257, 6
	for i := 0; i < passes; i++ {
		pass(1, batch)
	}
	expect("six passes to one stream", passes*batch, 0, passes)
	for i, n := range received(passes) {
		if n != batch {
			t.Fatalf("chain %d carries %d items, want %d", i, n, batch)
		}
	}

	pass(2, 5) // switch 2 never attached
	expect("a sessionless stream", passes*batch, 5, passes)

	const big = 3 * 1024
	pass(1, big)
	expect("one oversized batch", passes*batch+big, 5, passes+1)
	if sizes := received(passes + 1); len(sizes) != passes+1 || sizes[passes] != big {
		t.Fatalf("switch received chains of %v items, want %d of %d then one of %d", sizes, passes, batch, big)
	}
}

// chainsOf reassembles Packet-Out frames into signed push batches and returns
// the item count of each completed chain whose signature verifies.
func chainsOf(t *testing.T, pub ed25519.PublicKey, frames [][]byte) []int {
	t.Helper()
	ra := wire.NewReassembler(0)
	var sizes []int
	for _, data := range frames {
		pkt, err := wire.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		env, err := wire.UnmarshalEnvelope(pkt.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if env.Op == wire.OpChunk {
			if env, err = ra.Accept(0, env); err != nil {
				t.Fatal(err)
			}
		}
		if env == nil {
			continue
		}
		b, err := wire.UnmarshalNotifyBatch(env.Body)
		if err != nil {
			t.Fatal(err)
		}
		if !ed25519.Verify(pub, b.SigningBytes(), b.Signature) {
			t.Fatal("push batch signature does not verify")
		}
		sizes = append(sizes, len(b.Items))
	}
	return sizes
}
