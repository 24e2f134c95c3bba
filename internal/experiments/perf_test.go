package experiments

import (
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/wire"
)

func TestQueryLatencySmall(t *testing.T) {
	nt := NamedTopology{"linear-4", func() (*topology.Topology, error) { return topology.Linear(4, nil) }}
	row, err := QueryLatency(nt, wire.QueryReachableDestinations, 3)
	if err != nil {
		t.Fatal(err)
	}
	if row.Switches != 4 || row.Rules == 0 {
		t.Errorf("row = %+v", row)
	}
	if row.Mean <= 0 || row.Mean > 2*time.Second {
		t.Errorf("implausible latency %v", row.Mean)
	}
}

func TestMonitoringOverheadSmall(t *testing.T) {
	nt := NamedTopology{"linear-4", func() (*topology.Topology, error) { return topology.Linear(4, nil) }}
	row, err := MonitoringOverhead(nt, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if row.PollAllMean <= 0 {
		t.Errorf("poll mean = %v", row.PollAllMean)
	}
	if row.EventsApplied != 40 {
		t.Errorf("events applied = %d, want 40", row.EventsApplied)
	}
}

func TestMultiProviderChain(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		elapsed, eps, err := MultiProviderChain(n)
		if err != nil {
			t.Fatalf("chain %d: %v", n, err)
		}
		if elapsed <= 0 || eps == 0 {
			t.Errorf("chain %d: elapsed=%v eps=%d", n, elapsed, eps)
		}
	}
}

func TestStandardSweepBuilds(t *testing.T) {
	for _, nt := range StandardSweep() {
		topo, err := nt.Build()
		if err != nil {
			t.Fatalf("%s: %v", nt.Name, err)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: %v", nt.Name, err)
		}
	}
}
