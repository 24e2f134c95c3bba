package experiments

import (
	"fmt"
	"time"

	"repro/internal/deploy"
	"repro/internal/faultinject"
	"repro/internal/labspec"
	"repro/internal/rvaas"
	"repro/internal/rvaas/admin"
)

// Experiment E16: measured degradation envelopes under injected faults.
// The paper's core promise is that the verification plane never lies about
// network state; the fault plane is how we audit that promise under the
// conditions where lying is easiest — a partitioned trunk and a lossy
// attach path. Each row runs a real multi-process lab (two switchd
// children, one agentd child), schedules a trunk partition against the
// group hosting the far switches — optionally under sustained channel
// loss — and measures the envelope: how long until the partition is
// *detected* (first hosted switch detached), whether the standing
// invariants ever report green while their switches are known-detached
// (stale-green — the one unacceptable outcome), and how long after the
// partition heals until the children have rejoined through their own
// backoff loops and every invariant is green again.

// envelopeSpecYAML is the placed lab the envelope rows run: linear-4 with
// the middle and far switches in child processes and the far client's
// agent in a third, under a fast trunk liveness contract so detection
// and rejoin happen at bench speed.
const envelopeSpecYAML = `
name: envelope-lab
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

// FaultEnvelopeRow is one row of the E16 table.
type FaultEnvelopeRow struct {
	Lab string
	// LossPct is the sustained channel drop percentage active for the
	// whole row; Partition the scheduled trunk partition length.
	LossPct   int
	Partition time.Duration
	// DetachDetect is partition start -> first hosted switch marked
	// detached: how long the controller could, in principle, have served
	// stale state before noticing.
	DetachDetect time.Duration
	// ReattachConverge is partition end -> children rejoined, every
	// switch re-attached and every invariant green again.
	ReattachConverge time.Duration
	// StaleGreen counts poll samples during the partition where the
	// invariants reported green AFTER the degradation had been surfaced,
	// while the partitioned switches were still detached. Must be zero.
	StaleGreen int
	// Rejoins counts trunk join handshakes beyond the initial ones: the
	// children's own backoff rejoin doing the healing (no respawn).
	Rejoins int
	// ChannelDropped is the injector's count of channel messages eaten by
	// the loss profile (0 for the loss-free row).
	ChannelDropped uint64
	// ChannelReordered is the injector's count of channel frames delivered
	// behind a later-sent one.
	ChannelReordered uint64
}

// The E16 envelope bounds. Detection must beat 5× the lab's 400 ms
// beat-miss timeout; recovery is randomized (jittered backoff under loss)
// but must stay inside the sweep's own 30 s convergence deadline.
const (
	envelopeDetectBound   = 2 * time.Second
	envelopeConvergeBound = 25 * time.Second
)

// Check holds E16's claim: the partition is detected inside the liveness
// contract, the invariants never read green over switches known to be
// detached, and the lab heals through the children's own rejoin backoff
// inside a bounded window.
func (r FaultEnvelopeRow) Check() error {
	c := claims{row: fmt.Sprintf("%s/loss=%d/part=%s", r.Lab, r.LossPct, r.Partition)}
	c.require(r.DetachDetect > 0 && r.DetachDetect < envelopeDetectBound,
		"0 < detach-detect < %s: %s", envelopeDetectBound, r.DetachDetect)
	c.require(r.ReattachConverge > 0 && r.ReattachConverge < envelopeConvergeBound,
		"0 < reattach-converge < %s: %s", envelopeConvergeBound, r.ReattachConverge)
	c.require(r.StaleGreen == 0,
		"stale-green == 0: %d samples read green while partitioned switches were known-detached", r.StaleGreen)
	c.require(r.Rejoins >= 1, "rejoins ≥ 1: the lab healed with %d rejoins", r.Rejoins)
	return c.err()
}

// FaultEnvelopeSweep runs the three envelope rows: a clean partition, the
// same partition under 5% channel loss, and a longer partition under the
// same loss. childCmd spawns the lab's child processes (the benchharness
// re-execs itself); logf receives child/deploy logs (nil discards); seed
// drives the loss profiles' RNG so a sweep is reproducible end to end. On
// error it returns the rows completed before the failing one.
func FaultEnvelopeSweep(childCmd func(string) []string, logf func(string, ...any), seed int64) ([]FaultEnvelopeRow, error) {
	cases := []struct {
		loss      int
		partition time.Duration
	}{
		{0, 1200 * time.Millisecond},
		{5, 1200 * time.Millisecond},
		{5, 2500 * time.Millisecond},
	}
	rows := make([]FaultEnvelopeRow, 0, len(cases))
	for _, c := range cases {
		row, err := faultEnvelope(childCmd, logf, c.loss, c.partition, seed)
		if err != nil {
			return rows, fmt.Errorf("loss=%d%%/partition=%s: %w", c.loss, c.partition, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func faultEnvelope(childCmd func(string) []string, logf func(string, ...any), loss int, partition time.Duration, seed int64) (FaultEnvelopeRow, error) {
	row := FaultEnvelopeRow{Lab: "placed4", LossPct: loss, Partition: partition}
	spec, err := labspec.Parse([]byte(envelopeSpecYAML))
	if err != nil {
		return row, err
	}
	spec.Name = fmt.Sprintf("envelope-loss%d", loss)
	if loss > 0 {
		spec.Faults = &labspec.FaultsSpec{
			Seed: seed,
			Profiles: []labspec.FaultProfileSpec{{
				Name:    "lossy",
				Drop:    float64(loss) / 100,
				Latency: labspec.Duration(2 * time.Millisecond),
			}},
		}
	}
	d, err := deploy.FromSpecPlaced(spec, deploy.PlacedConfig{ChildCommand: childCmd, Logf: logf})
	if err != nil {
		return row, err
	}
	defer d.Close()
	p := d.Placed

	green := func() bool {
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
	}
	rightDetached := func() bool {
		for _, ss := range d.RVaaS.SwitchSessions() {
			if (ss.Switch == 3 || ss.Switch == 4) && ss.State == rvaas.SwitchDetached {
				return true
			}
		}
		return false
	}
	allAttached := func() bool {
		for _, ss := range d.RVaaS.SwitchSessions() {
			if !ss.Attached() {
				return false
			}
		}
		return true
	}
	rightRunning := func() bool {
		for _, h := range p.ProcHealth() {
			if h.Name == "right" {
				return h.State == admin.ProcStateRunning
			}
		}
		return false
	}
	totalJoins := func() int {
		n := 0
		for _, h := range p.ProcHealth() {
			n += h.Joins
		}
		return n
	}

	if err := waitUntil(30*time.Second, green); err != nil {
		return row, fmt.Errorf("bring-up: %w", err)
	}
	if loss > 0 {
		if _, err := p.InjectFault(admin.FaultInjectRequest{
			Target: faultinject.TargetChannel, Profile: "lossy",
		}); err != nil {
			return row, fmt.Errorf("inject channel loss: %w", err)
		}
		// Let the loss profile bite before the partition starts, so the
		// partition rows under loss really measure detection *under* loss.
		time.Sleep(500 * time.Millisecond)
	}

	joinsBefore := totalJoins()
	start := time.Now()
	if _, err := p.InjectFault(admin.FaultInjectRequest{
		Target: faultinject.TargetTrunk, Group: "right",
		Kind: faultinject.KindPartition, DurationMS: partition.Milliseconds(),
	}); err != nil {
		return row, fmt.Errorf("inject partition: %w", err)
	}

	// Ride the partition out sampling the controller's story. Stale-green
	// only counts after the degradation has been surfaced once: the window
	// between detach and the first re-evaluation IS the detection latency,
	// measured separately.
	surfaced := false
	for time.Since(start) < partition {
		detached := rightDetached()
		g := green()
		if detached && row.DetachDetect == 0 {
			row.DetachDetect = time.Since(start)
		}
		if detached && !g {
			surfaced = true
		}
		if detached && surfaced && g {
			row.StaleGreen++
		}
		time.Sleep(5 * time.Millisecond)
	}

	healed := start.Add(partition)
	if err := waitUntil(30*time.Second, func() bool {
		return allAttached() && rightRunning() && green()
	}); err != nil {
		return row, fmt.Errorf("reconvergence after heal: %w", err)
	}
	row.ReattachConverge = time.Since(healed)
	row.Rejoins = totalJoins() - joinsBefore
	counters := p.Faults().Counters
	row.ChannelDropped, row.ChannelReordered = counters.ChannelDropped, counters.ChannelReordered
	return row, nil
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %s", d)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}
