package experiments

import "testing"

// TestDetectionMatrixUnderLyingProvider is experiment E4 under the paper's
// threat model: the compromised control plane falsifies its reports. RVaaS
// must detect every attack; the report-dependent baselines must miss the
// ones the provider can lie about.
func TestDetectionMatrixUnderLyingProvider(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is expensive")
	}
	results := DetectionMatrix(true)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s/%s: %v", r.Attack, r.Detector, r.Err)
		}
	}
	byCell := make(map[[2]string]bool)
	for _, r := range results {
		byCell[[2]string{r.Attack, r.Detector}] = r.Detected
	}
	attacks := []string{
		"traffic-diversion", "exfiltration", "join-attack",
		"geo-violation", "neutrality-violation", "meter-throttle", "flap-attack",
	}
	for _, a := range attacks {
		if !byCell[[2]string{a, "rvaas"}] {
			t.Errorf("rvaas missed %s", a)
		}
		if byCell[[2]string{a, "traceroute"}] {
			t.Errorf("traceroute detected %s despite a lying provider", a)
		}
		if byCell[[2]string{a, "trajectory-sampling"}] {
			t.Errorf("trajectory sampling detected %s despite a lying provider", a)
		}
	}
	t.Logf("\n%s", FormatMatrix(results))
}

// TestDetectionMatrixHonestProvider is the ablation: with an honest
// provider, path-observing baselines do catch path-changing attacks but
// remain blind to attacks that do not alter the observed flow's path.
func TestDetectionMatrixHonestProvider(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is expensive")
	}
	results := DetectionMatrix(false)
	byCell := make(map[[2]string]bool)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s/%s: %v", r.Attack, r.Detector, r.Err)
		}
		byCell[[2]string{r.Attack, r.Detector}] = r.Detected
	}
	// Path-changing attacks are visible to honest trajectory sampling.
	for _, a := range []string{"traffic-diversion", "geo-violation", "neutrality-violation"} {
		if !byCell[[2]string{a, "trajectory-sampling"}] {
			t.Errorf("honest trajectory sampling should catch %s", a)
		}
	}
	// Join attacks never alter the observed flow: all baselines blind.
	if byCell[[2]string{"join-attack", "traceroute"}] ||
		byCell[[2]string{"join-attack", "trajectory-sampling"}] {
		t.Error("baselines cannot see a join attack even with an honest provider")
	}
	// RVaaS still detects everything.
	rvaas := 0
	for _, r := range results {
		if r.Detector == "rvaas" && r.Detected {
			rvaas++
		}
	}
	if rvaas != 7 {
		t.Errorf("rvaas score = %d/7", rvaas)
	}
	// The covert meter throttle is invisible to path observation even with
	// an honest provider: the probe passes the burst allowance.
	if byCell[[2]string{"meter-throttle", "trajectory-sampling"}] {
		t.Error("trajectory sampling cannot see rate starvation")
	}
}
