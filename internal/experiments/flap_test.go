package experiments

import (
	"testing"
	"time"
)

// TestFlapDetectionProbability is experiment E5: fixed-phase polling never
// catches a schedule-aware flap attacker, randomized polling catches it at
// roughly its duty cycle.
func TestFlapDetectionProbability(t *testing.T) {
	if testing.Short() {
		t.Skip("flap sweep is expensive")
	}
	const (
		pollInterval = 10 * time.Second
		horizon      = 400 * time.Second // ~40 nominal polls
	)
	// Attacker active 40% of every interval, aligned to nominal polls.
	window := 4 * time.Second

	fixed, err := FlapDetection(false, window, pollInterval, horizon, 7)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.PollsHit > 0 {
		t.Errorf("fixed polling detected a schedule-aware attacker (rate %.2f)", fixed.DetectionRate)
	}

	random, err := FlapDetection(true, window, pollInterval, horizon, 7)
	if err != nil {
		t.Fatal(err)
	}
	if random.PollsHit == 0 {
		t.Error("randomized polling never detected the attack")
	}
	// Expect detection rate in the rough vicinity of the duty cycle (0.4);
	// allow a wide band since the horizon is short.
	if random.DetectionRate < 0.1 || random.DetectionRate > 0.8 {
		t.Errorf("randomized detection rate %.2f outside plausible band", random.DetectionRate)
	}
	t.Logf("fixed rate=%.2f randomized rate=%.2f (duty cycle 0.4)",
		fixed.DetectionRate, random.DetectionRate)
}

func TestFlapDetectionValidatesWindow(t *testing.T) {
	_, err := FlapDetection(true, 20*time.Second, 10*time.Second, time.Minute, 1)
	if err == nil {
		t.Error("window larger than interval accepted")
	}
}

func TestFlapSweepMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("flap sweep is expensive")
	}
	rows, err := FlapSweep([]float64{0.1, 0.5, 0.9}, 10*time.Second, 300*time.Second, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Randomized detection should grow with the attacker's duty cycle.
	if !(rows[2].RandomRate > rows[0].RandomRate) {
		t.Errorf("randomized rate not increasing: %+v", rows)
	}
	// Fixed polling stays blind regardless of duty cycle (<1 windows).
	for _, r := range rows {
		if r.FixedRate != 0 {
			t.Errorf("fixed polling caught flaps at fraction %.1f", r.WindowFraction)
		}
	}
}
