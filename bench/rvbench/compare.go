package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs: each
// end-to-end metric's good direction and regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// findBenchmarkSpec looks for BENCHMARK.json in the working directory and
// its parents (the benchmark runs from the repository root or from bench/).
func findBenchmarkSpec() (*benchmarkSpec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var spec benchmarkSpec
			if err := json.Unmarshal(data, &spec); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &spec, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in %s or above", dir)
		}
		dir = parent
	}
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict classifies B against A for one metric: ok when B is no worse
// than A by more than bound; unresolved when it is worse by more than
// bound but either run's own segment spread is wider than the bound, so
// the difference cannot be told from noise; worse otherwise.
func verdict(a, b float64, sa, sb spread, better string, bound float64) string {
	if a == 0 {
		return "unresolved"
	}
	change := (b - a) / a
	if better == "higher" {
		change = -change
	}
	if change <= bound {
		return "ok"
	}
	rel := func(sp spread) float64 {
		if sp.Median == 0 {
			return 0
		}
		return (sp.Max - sp.Min) / math.Abs(sp.Median)
	}
	if rel(sa) > bound || rel(sb) > bound {
		return "unresolved"
	}
	return "worse"
}

// compareMain prints, per workload × end-to-end metric, both values, the
// bound and the verdict. It exits 1 if any row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: rvbench compare A.json B.json")
		return 2
	}
	spec, err := findBenchmarkSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvbench compare:", err)
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvbench compare:", err)
		return 2
	}
	b, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvbench compare:", err)
		return 2
	}
	fmt.Printf("A: %s seed %d commit %s\nB: %s seed %d commit %s\n", args[0], a.Machine.Seed, a.Machine.Commit, args[1], b.Machine.Seed, b.Machine.Commit)
	fmt.Printf("%-14s %-16s %12s %12s %-5s %8s %6s  %s\n", "workload", "metric", "A", "B", "unit", "change", "bound", "verdict")
	code := 0
	for _, ra := range a.Results {
		var rb *result
		for _, r := range b.Results {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			fmt.Printf("%-14s missing from B\n", ra.Workload)
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			v := verdict(va, vb, ra.Segments[m.Name], rb.Segments[m.Name], m.Better, m.Bound)
			if v == "worse" {
				code = 1
			}
			change := 0.0
			if va != 0 {
				change = 100 * (vb - va) / va
			}
			fmt.Printf("%-14s %-16s %12.4f %12.4f %-5s %+7.1f%% %5.0f%%  %s\n", ra.Workload, m.Name, va, vb, m.Unit, change, 100*m.Bound, v)
		}
		if ra.Failed != 0 || rb.Failed != 0 || !ra.Correct || !rb.Correct {
			fmt.Printf("%-14s failed: A %d of %d (correct=%v), B %d of %d (correct=%v)\n", ra.Workload, ra.Failed, ra.Attempted, ra.Correct, rb.Failed, rb.Attempted, rb.Correct)
			code = 1
		}
	}
	return code
}
