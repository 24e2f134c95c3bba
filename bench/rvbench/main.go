// Command rvbench is the repository's end-to-end benchmark: it brings a
// complete RVaaS deployment up in this process (in-memory control
// channels: no link, no loopback), loads it with one of four seeded
// workloads, checks every answer, and prints each metric by name with its
// unit. See ../README.md.
//
//	rvbench --workload W --seed S --seconds N --trace 0|1 [-out FILE]
//	rvbench compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

const transportNote = "in-proc pipes, no link, no loopback"

// gcPercent is the collector setting every run uses.
const gcPercent = 400

// machine describes where and on what inputs a report was measured.
type machine struct {
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GCPercent  int    `json:"gc_percent"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
}

// report is the -out file: one result per workload run.
type report struct {
	Machine machine   `json:"machine"`
	Results []*result `json:"results"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// lastLine is the result line the driver reads: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one.
type lastLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(r *result) {
	fmt.Printf("workload %s (%s)\n  seed %d, %d s window, traced=%v, %s\n", r.Workload, r.Loop, r.Seed, r.Seconds, r.Traced, transportNote)
	row := func(name string, m metric, sp *spread) {
		if sp != nil {
			fmt.Printf("  %-40s %14.4f %-6s segments [%.4f .. %.4f]\n", name, m.Value, m.Unit, sp.Min, sp.Max)
		} else {
			fmt.Printf("  %-40s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	for _, d := range endToEnd {
		sp := r.Segments[d.name]
		row(d.name, r.Metrics[d.name], &sp)
	}
	fmt.Printf("  %-40s %14.6f ratio  (%d failed of %d attempted, %d latency samples)\n", "failed_share", r.FailedShare, r.Failed, r.Attempted, r.Samples)
	names := make([]string, 0, len(r.Layers))
	for name := range r.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		row(name, r.Layers[name], nil)
	}
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	for _, n := range r.Notes {
		fmt.Printf("  NOTE: %s\n", n)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 20, "length of one measured window")
		trace    = flag.Int("trace", 0, "1 adds a traced window and reports the per-layer metrics")
		out      = flag.String("out", "", "write the full report (segments, layers, trace) to this file")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	defs := workloads
	if *workload != "" {
		def := workloadByName(*workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "rvbench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		defs = []workloadDef{*def}
	}

	// With the default collector setting, cycles stall about one event in
	// ten on this 2-core box and their timing sets the tail; see README.
	debug.SetGCPercent(gcPercent)

	rep := report{Machine: machine{
		Seed: *seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GCPercent: gcPercent, Commit: commit(), Transport: transportNote,
	}}
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s gc=%d%% commit=%s\n", rep.Machine.NProc, rep.Machine.GOMAXPROCS, rep.Machine.GoVersion, gcPercent, rep.Machine.Commit)
	ok := true
	var lines []lastLine
	for i := range defs {
		r, err := runWorkload(&defs[i], *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rvbench: %v\n", err)
			os.Exit(1)
		}
		printResult(r)
		rep.Results = append(rep.Results, r)
		ok = ok && r.Correct
		line := lastLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
		if r.Traced {
			line.Metrics = r.Layers
		}
		lines = append(lines, line)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rvbench: write %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	for _, line := range lines {
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rvbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
	}
	if !ok {
		os.Exit(1)
	}
}
