package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkFile is the part of ../../BENCHMARK.json the smoke test holds
// the program to.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeAllWorkloads runs every workload for two seconds, traced (which
// measures an untraced window first), and holds the result to
// BENCHMARK.json: no failed operation, every output correct, and each
// named metric emitted exactly once with its unit — the end-to-end ones by
// the untraced window, the per-layer ones by the traced run.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("brings four deployments up")
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		def := workloadByName(w.Name)
		if def == nil || workloads[i].name != w.Name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
		res, err := runWorkload(def, 1, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		// Under the race detector the system cannot hold the open-loop
		// rates: operations are late, and a verdict later than the next
		// change to its probe is traced against the wrong change. The
		// outputs must still be right.
		if !res.Correct || (res.Failed != 0 && !raceEnabled) || res.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d failed of %d: %v %v", w.Name, res.Correct, res.Failed, res.Attempted, res.Problems, res.Notes)
		}
		sameMetrics(t, w.Name+" end-to-end", res.Metrics, spec.EndToEnd, true)
		sameMetrics(t, w.Name+" per-layer", res.Layers, spec.PerLayer, false)
		if res.Trace == nil || (def.name != "query-closed" && res.Trace.Events == 0) {
			t.Errorf("%s: the traced run recorded no event spans", w.Name)
		}
		if pct := res.Layers["trace.reconcile_err_pct"].Value; pct > 1 && !raceEnabled {
			t.Errorf("%s: spans reconcile to within %v%%, want 1%%", w.Name, pct)
		}
	}
}

// sameMetrics checks got holds exactly the named metrics, each with its
// unit (a map holds a name once) and, where nonzero is set, a value above 0.
func sameMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }, nonzero bool) {
	t.Helper()
	var missing []string
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		case nonzero && g.Value <= 0:
			t.Errorf("%s: %s = %v, want above 0", what, m.Name, g.Value)
		}
	}
	if len(missing) > 0 || len(got) != len(want) {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Errorf("%s: emitted %d metrics %v, BENCHMARK.json names %d (missing %v)", what, len(got), names, len(want), missing)
	}
}
