package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/deploy"
	"repro/internal/topology"
)

// Experiment E5: randomized polling against short-term reconfiguration
// (flap) attacks. The paper argues active polls "need to happen at random
// times, which are hard to guess for the adversary. This is important as
// otherwise, the adversary may simply set the correct rules for the short
// time periods in which the box checks the configuration" (§IV-A).
//
// The simulation suppresses the switches' flow-monitor channel (a stealthy
// adversary), leaving polls as the only observation mechanism, and runs on
// a virtual clock:
//
//   - The attacker flaps with period P, keeping its malicious rules
//     installed for a window W of each period. It knows the NOMINAL poll
//     schedule (one poll per interval I starting at phase 0) and aligns its
//     windows to start just after each nominal poll time.
//   - Fixed polling polls exactly at the nominal times, so the attacker
//     evades every check.
//   - Randomized polling draws each gap from [I/2, 3I/2] (the controller's
//     actual distribution), so polls drift away from the nominal times the
//     attacker aims around.
type FlapResult struct {
	Polls    int
	PollsHit int
	// DetectionRate is PollsHit / Polls: the per-poll probability of
	// catching the attack rules installed.
	DetectionRate float64
}

// FlapDetection runs one E5 configuration.
//
// window is the attacker's active window per poll interval (the attack
// period equals the nominal poll interval: the attacker re-installs after
// every nominal poll). horizon/pollInterval polls are simulated.
func FlapDetection(randomized bool, window, pollInterval, horizon time.Duration, seed int64) (FlapResult, error) {
	var res FlapResult
	if window > pollInterval {
		return res, fmt.Errorf("experiments: window %v exceeds poll interval %v", window, pollInterval)
	}
	topo, err := topology.Linear(3, nil)
	if err != nil {
		return res, err
	}
	// Virtual clock (mutex-guarded: controller goroutines read it).
	var clkMu sync.Mutex
	now := time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		clkMu.Lock()
		defer clkMu.Unlock()
		return now
	}
	setNow := func(t time.Time) {
		clkMu.Lock()
		defer clkMu.Unlock()
		now = t
	}

	d, err := deploy.New(topo, deploy.Options{
		Clock:      clock,
		Seed:       seed,
		SkipAgents: true,
	})
	if err != nil {
		return res, err
	}
	defer d.Close()
	// The stealthy adversary suppresses monitor events on every switch.
	for _, sw := range d.Fabric.Switches() {
		sw.SetEventSuppression(true)
	}

	victim := topo.AccessPoints()[2]
	flap := &controlplane.FlapAttack{
		Inner: &controlplane.NeutralityViolation{VictimIP: victim.HostIP, L4Dst: 443},
	}
	rng := rand.New(rand.NewSource(seed))
	start := clock()

	// Generate this run's actual poll times.
	var pollTimes []time.Duration
	elapsed := time.Duration(0)
	for elapsed < horizon {
		var gap time.Duration
		if randomized {
			gap = pollInterval/2 + time.Duration(rng.Int63n(int64(pollInterval)))
		} else {
			gap = pollInterval
		}
		elapsed += gap
		pollTimes = append(pollTimes, elapsed)
	}

	// attackActive: the attacker's window starts just after each NOMINAL
	// poll time k*I (it cannot observe the actual randomized polls).
	attackActive := func(t time.Duration) bool {
		phase := t % pollInterval
		// Active in (epsilon, epsilon+window] after the nominal poll.
		const epsilon = time.Millisecond
		return phase > epsilon && phase <= epsilon+window
	}

	for _, pt := range pollTimes {
		// Advance the world to the poll instant: set attack phase first.
		setNow(start.Add(pt))
		wantActive := attackActive(pt)
		if wantActive && !flap.Active() {
			if err := flap.Launch(d.Provider); err != nil {
				return res, err
			}
		}
		if !wantActive && flap.Active() {
			if err := flap.Revert(d.Provider); err != nil {
				return res, err
			}
		}
		if err := d.RVaaS.PollAll(2 * time.Second); err != nil {
			return res, err
		}
		res.Polls++
		if snapshotHasAttack(d) {
			res.PollsHit++
		}
	}
	if res.Polls > 0 {
		res.DetectionRate = float64(res.PollsHit) / float64(res.Polls)
	}
	return res, nil
}

// snapshotHasAttack checks the polled snapshot for attack-cookie rules.
func snapshotHasAttack(d *deploy.Deployment) bool {
	for _, ev := range d.RVaaS.ExportState() {
		for _, e := range ev.Entries {
			if e.Cookie&controlplane.CookieAttack == controlplane.CookieAttack {
				return true
			}
		}
	}
	return false
}

// FlapSweep runs E5 across window fractions for both strategies.
type FlapSweepRow struct {
	WindowFraction float64
	FixedRate      float64
	RandomRate     float64
}

// FlapSweep sweeps the attacker's duty cycle (window / poll interval) and
// reports per-poll detection rates for fixed and randomized polling.
func FlapSweep(fractions []float64, pollInterval, horizon time.Duration, seed int64) ([]FlapSweepRow, error) {
	var rows []FlapSweepRow
	for _, f := range fractions {
		window := time.Duration(float64(pollInterval) * f)
		fixed, err := FlapDetection(false, window, pollInterval, horizon, seed)
		if err != nil {
			return nil, err
		}
		random, err := FlapDetection(true, window, pollInterval, horizon, seed+1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FlapSweepRow{
			WindowFraction: f,
			FixedRate:      fixed.DetectionRate,
			RandomRate:     random.DetectionRate,
		})
	}
	return rows, nil
}
