package deploy

import (
	"testing"
	"time"

	"repro/internal/labspec"
)

// TestPlacedSubscribeAckPushRace pins a bring-up ordering bug: in a placed
// lab the provider's flow mods are applied asynchronously by the child
// processes, so an invariant registered right after bring-up can evaluate
// violated and recover milliseconds later — and the recovery push can
// reach the client BEFORE the subscribe ack (they race on the secure
// channel). Gap recovery must not fire on a not-yet-acked subscription:
// it cannot name the server-side id, so its re-registration would leak
// the original subscription as a permanent duplicate in /v1/subs.
func TestPlacedSubscribeAckPushRace(t *testing.T) {
	spec, err := labspec.Parse([]byte(`
name: gap-race-lab
topology:
  generator: linear
  size: 6
transport:
  kind: udp
rvaas:
  pollInterval: 50ms
agents:
  responseTimeout: 10s
placement:
  joinTimeout: 20s
  groups:
    - name: sw-left
      proc: local-exec
      switches: [1, 2, 3]
    - name: sw-right
      proc: local-exec
      switches: [4, 5, 6]
invariants:
  - client: 1
    kind: reachable-destinations
    constraints:
      - field: ip_dst
        value: 0x0A000601
        mask: 0xFFFFFFFF
`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromSpecPlaced(spec, PlacedConfig{ChildCommand: reexecChild, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	// Let bring-up turbulence (async flow installs, transient violation +
	// recovery, any racing pushes) fully settle, then demand exactly the
	// declared subscription — no leaked duplicates.
	waitFor(t, "invariant green", func() bool {
		subs := d.RVaaS.Subscriptions()
		return len(subs) >= 1 && !subs[0].Violated
	})
	time.Sleep(1500 * time.Millisecond)
	if subs := d.RVaaS.Subscriptions(); len(subs) != 1 {
		for _, s := range subs {
			t.Logf("sub id=%d client=%d kind=%v violated=%v", s.ID, s.ClientID, s.Kind, s.Violated)
		}
		t.Fatalf("server holds %d subscriptions for 1 declared invariant (gap recovery leaked a duplicate)", len(subs))
	}
	if n := d.Agent(1).GapsDetected(); n != 0 {
		t.Errorf("gap recoveries = %d, want 0 (pre-ack pushes must not trigger re-subscribe)", n)
	}
}
