package baseline

import (
	"testing"

	"repro/internal/controlplane"
	"repro/internal/fabric"
	"repro/internal/topology"
)

func buildEnv(t *testing.T, lying bool) (*Env, *controlplane.Controller) {
	t.Helper()
	topo, err := topology.Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fabric.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	ctl := controlplane.New(f)
	if err := ctl.InstallAllPairs(); err != nil {
		t.Fatal(err)
	}
	aps := topo.AccessPoints()
	env := &Env{
		Fabric:   f,
		Topology: topo,
		SrcAP:    aps[0],
		DstAP:    aps[8],
		Lying:    lying,
	}
	return env, ctl
}

func TestHonestDetectorsSeeDiversion(t *testing.T) {
	for _, det := range []Detector{&Traceroute{}, &TrajectorySampling{}} {
		env, ctl := buildEnv(t, false)
		if err := det.Baseline(env); err != nil {
			t.Fatal(err)
		}
		// No attack: no detection.
		got, err := det.Detect(env)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Errorf("%s false positive on clean network", det.Name())
		}
		atk := &controlplane.TrafficDiversion{VictimIP: env.DstAP.HostIP, Detour: 5}
		if err := atk.Launch(ctl); err != nil {
			t.Fatal(err)
		}
		got, err = det.Detect(env)
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Errorf("honest %s missed the diversion", det.Name())
		}
	}
}

func TestLyingProviderBlindsDetectors(t *testing.T) {
	for _, det := range []Detector{&Traceroute{}, &TrajectorySampling{}} {
		env, ctl := buildEnv(t, true)
		if err := det.Baseline(env); err != nil {
			t.Fatal(err)
		}
		atk := &controlplane.TrafficDiversion{VictimIP: env.DstAP.HostIP, Detour: 5}
		if err := atk.Launch(ctl); err != nil {
			t.Fatal(err)
		}
		got, err := det.Detect(env)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Errorf("%s detected despite the lying provider", det.Name())
		}
	}
}

func TestActualPathIncludesDelivery(t *testing.T) {
	env, _ := buildEnv(t, false)
	path := env.actualPath()
	if len(path) < 2 {
		t.Fatalf("path too short: %v", path)
	}
	if path[len(path)-1] != deliveredMarker {
		t.Error("delivered probe must end with the delivery marker")
	}
	if path[0] != env.SrcAP.Endpoint.Switch {
		t.Errorf("path starts at %d, want %d", path[0], env.SrcAP.Endpoint.Switch)
	}
}

func TestSampledSwitchesLyingIncludesDelivery(t *testing.T) {
	env, _ := buildEnv(t, true)
	samples := env.sampledSwitches()
	if !samples[deliveredMarker] {
		t.Error("lying provider must fabricate the delivery sample")
	}
}
