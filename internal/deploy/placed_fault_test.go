package deploy

import (
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/labspec"
	"repro/internal/leakcheck"
	"repro/internal/rvaas"
	"repro/internal/rvaas/admin"
	"repro/internal/topology"
)

// faultSpecYAML is placedSpecYAML with a fast trunk liveness contract and a
// bounded rejoin budget, so partitions are detected and healed at test
// speed.
const faultSpecYAML = `
name: fault-lab
topology:
  generator: linear
  size: 4
transport:
  kind: udp
placement:
  joinTimeout: 30s
  beatInterval: 50ms
  beatMissTimeout: 400ms
  rejoin:
    maxAttempts: 60
    backoff: 50ms
    maxBackoff: 250ms
  groups:
    - name: left
      proc: local-exec
      switches: [2]
    - name: right
      proc: local-exec
      switches: [3, 4]
    - name: edge
      proc: local-exec
      agents: [3]
invariants:
  - client: 1
    kind: reachable-destinations
    constraints:
      - field: ip_dst
        value: 0x0A000401
        mask: 0xFFFFFFFF
  - client: 3
    kind: path-length
    param: "10"
`

// TestPlacedFaultPartitionRejoin is the fault-plane e2e: a runtime trunk
// partition degrades the lab (never stale-green), and when the window
// closes the same child process rejoins through its own backoff loop — no
// operator Respawn — and the invariants reconverge. A second partition on
// the agentd group exercises the agent-side rejoin path.
func TestPlacedFaultPartitionRejoin(t *testing.T) {
	leakcheck.Check(t)
	spec, err := labspec.Parse([]byte(faultSpecYAML))
	if err != nil {
		t.Fatalf("parse spec: %v", err)
	}
	d, err := FromSpecPlaced(spec, PlacedConfig{ChildCommand: reexecChild, Logf: t.Logf})
	if err != nil {
		t.Fatalf("FromSpecPlaced: %v", err)
	}
	t.Cleanup(d.Close)
	p := d.Placed

	waitFor(t, "both invariants registered and green", func() bool {
		subs := d.RVaaS.Subscriptions()
		if len(subs) != 2 {
			return false
		}
		for _, s := range subs {
			if s.Violated {
				return false
			}
		}
		return true
	})
	rightPID := p.Child("right").PID()

	// Partition the right switchd group's trunk for 2 seconds. The fault
	// layer drops messages, not sockets: the child only learns of the
	// partition when the beat-miss monitor reaps its connection.
	win, err := p.InjectFault(admin.FaultInjectRequest{
		Target: faultinject.TargetTrunk, Group: "right",
		Kind: faultinject.KindPartition, DurationMS: 2000,
	})
	if err != nil {
		t.Fatalf("inject partition: %v", err)
	}
	if !win.Active || win.Until.IsZero() {
		t.Fatalf("injected window = %+v, want active and bounded", win)
	}

	// Degraded, never stale-green: the partitioned group's switches must go
	// detached and the invariant crossing them must be violated while the
	// partition holds.
	waitFor(t, "switches 3 and 4 detached under partition", func() bool {
		for _, ss := range d.RVaaS.SwitchSessions() {
			if (ss.Switch == 3 || ss.Switch == 4) && ss.State != rvaas.SwitchDetached {
				return false
			}
		}
		return true
	})
	waitFor(t, "reachability invariant degraded under partition", func() bool {
		for _, s := range d.RVaaS.Subscriptions() {
			if s.ClientID == 1 && s.Violated {
				return true
			}
		}
		return false
	})
	waitFor(t, "right group health degraded", func() bool {
		for _, h := range p.ProcHealth() {
			if h.Name == "right" {
				return h.State == admin.ProcStateDegraded
			}
		}
		return false
	})

	// Heal: the window expires on its own; the child's rejoin backoff loop
	// reconnects, its switches re-attach over fresh secure channels, and
	// the invariants reconverge — all without Respawn.
	waitFor(t, "all switches re-attached after heal", func() bool {
		for _, ss := range d.RVaaS.SwitchSessions() {
			if !ss.Attached() {
				return false
			}
		}
		return true
	})
	waitFor(t, "invariants reconverged after heal", func() bool {
		subs := d.RVaaS.Subscriptions()
		if len(subs) != 2 {
			return false
		}
		for _, s := range subs {
			if s.Violated {
				return false
			}
		}
		return true
	})
	waitFor(t, "right group healthy again", func() bool {
		for _, h := range p.ProcHealth() {
			if h.Name == "right" {
				return h.State == admin.ProcStateRunning && h.Joins >= 2
			}
		}
		return false
	})
	if got := p.Child("right").PID(); got != rightPID {
		t.Fatalf("right child pid changed %d -> %d: rejoin must reuse the process", rightPID, got)
	}

	// The fault plane kept score: trunk drops and at least one refused
	// rejoin attempt during the partition.
	view := p.Faults()
	if view.Counters.TrunkDropped == 0 {
		t.Error("partition dropped no trunk messages")
	}

	// Second phase: partition the agentd group. Its health must degrade
	// (reaped trunk) and recover through the same child-side rejoin, with
	// its standing subscription intact.
	if _, err := p.InjectFault(admin.FaultInjectRequest{
		Target: faultinject.TargetTrunk, Group: "edge",
		Kind: faultinject.KindPartition, DurationMS: 1200,
	}); err != nil {
		t.Fatalf("inject agentd partition: %v", err)
	}
	waitFor(t, "edge group degraded under partition", func() bool {
		for _, h := range p.ProcHealth() {
			if h.Name == "edge" {
				return h.State != admin.ProcStateRunning
			}
		}
		return false
	})
	waitFor(t, "edge group healthy after heal", func() bool {
		for _, h := range p.ProcHealth() {
			if h.Name == "edge" {
				return h.State == admin.ProcStateRunning && h.Joins >= 2
			}
		}
		return false
	})
	waitFor(t, "invariants green after agentd rejoin", func() bool {
		subs := d.RVaaS.Subscriptions()
		if len(subs) != 2 {
			return false
		}
		for _, s := range subs {
			if s.Violated {
				return false
			}
		}
		return true
	})

	// Windows expired on their own; nothing should remain to clear.
	if n, _ := p.ClearFaults(0, true); n != 2 {
		t.Logf("cleared %d expired windows (bookkeeping only)", n)
	}
}

// TestPlacedFaultChannelLoss runs the lab under a persistent 5%% loss /
// small-latency channel profile injected at runtime: queries and standing
// invariants must stay correct (the secure channel's reliability layer
// absorbs the loss), and the injector's counters must show the profile
// actually perturbed traffic.
func TestPlacedFaultChannelLoss(t *testing.T) {
	leakcheck.Check(t)
	spec, err := labspec.Parse([]byte(faultSpecYAML))
	if err != nil {
		t.Fatalf("parse spec: %v", err)
	}
	spec.Name = "lossy-lab"
	spec.Faults = &labspec.FaultsSpec{
		Seed: 42,
		Profiles: []labspec.FaultProfileSpec{
			{Name: "lossy", Drop: 0.05, Latency: labspec.Duration(2 * time.Millisecond)},
			{Name: "blackhole", Drop: 1.0},
		},
	}
	d, err := FromSpecPlaced(spec, PlacedConfig{ChildCommand: reexecChild, Logf: t.Logf})
	if err != nil {
		t.Fatalf("FromSpecPlaced: %v", err)
	}
	t.Cleanup(d.Close)
	p := d.Placed

	if _, err := p.InjectFault(admin.FaultInjectRequest{
		Target: faultinject.TargetChannel, Profile: "lossy",
	}); err != nil {
		t.Fatalf("inject channel loss: %v", err)
	}

	waitFor(t, "invariants green under channel loss", func() bool {
		subs := d.RVaaS.Subscriptions()
		if len(subs) != 2 {
			return false
		}
		for _, s := range subs {
			if s.Violated {
				return false
			}
		}
		return true
	})
	// Force channel traffic through the lossy window: resync every placed
	// switch so state reads cross the perturbed path.
	for _, sw := range []topology.SwitchID{2, 3, 4} {
		if err := d.RVaaS.ForceResync(sw); err != nil {
			t.Fatalf("resync %d: %v", sw, err)
		}
	}
	waitFor(t, "invariants green after lossy resyncs", func() bool {
		for _, ss := range d.RVaaS.SwitchSessions() {
			if !ss.Attached() {
				return false
			}
		}
		for _, s := range d.RVaaS.Subscriptions() {
			if s.Violated {
				return false
			}
		}
		return true
	})
	// The open-ended window stays active, so the controller's periodic
	// channel heartbeats keep crossing it: the injector's counters must
	// show the profile actually perturbing traffic.
	waitFor(t, "channel profile perturbs traffic", func() bool {
		c := p.Faults().Counters
		return c.ChannelDropped+c.ChannelDelayed > 0
	})
	if _, err := p.ClearFaults(0, true); err != nil {
		t.Fatalf("clear lossy window: %v", err)
	}

	// Blackhole one switch's channel past the beat-miss threshold: the
	// controller detaches it, and — because a detach over UDP is silent to
	// the child — only the child's channel keeper can bring it back, by
	// noticing the silence and re-dialing inside the same trunk session.
	trunkJoins := func() int {
		n := 0
		for _, h := range p.ProcHealth() {
			n += h.Joins
		}
		return n
	}
	joinsBefore := trunkJoins()
	if _, err := p.InjectFault(admin.FaultInjectRequest{
		Target: faultinject.TargetChannel, Profile: "blackhole",
		Switch: 3, DurationMS: 1500,
	}); err != nil {
		t.Fatalf("inject blackhole: %v", err)
	}
	waitFor(t, "switch 3 detached under blackhole", func() bool {
		for _, ss := range d.RVaaS.SwitchSessions() {
			if ss.Switch == 3 {
				return ss.State == rvaas.SwitchDetached
			}
		}
		return false
	})
	waitFor(t, "switch 3 re-attached by its channel keeper", func() bool {
		for _, ss := range d.RVaaS.SwitchSessions() {
			if ss.Switch == 3 {
				return ss.Attached()
			}
		}
		return false
	})
	waitFor(t, "invariants green after keeper re-attach", func() bool {
		subs := d.RVaaS.Subscriptions()
		if len(subs) != 2 {
			return false
		}
		for _, s := range subs {
			if s.Violated {
				return false
			}
		}
		return true
	})
	// The recovery happened inside the standing trunk sessions: no child
	// fell back to a trunk rejoin to restore its channel.
	if got := trunkJoins(); got != joinsBefore {
		t.Errorf("trunk joins %d -> %d: channel keeper recovery must not cycle the trunk", joinsBefore, got)
	}
}
