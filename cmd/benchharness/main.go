// Command benchharness regenerates the experiment tables of the
// reproduction and prints them in the format recorded in EXPERIMENTS.md.
// It is the only program that runs internal/experiments. The set of
// experiments is data-driven: the experiments slice below is the single
// source of truth, and the -only flag's help text is generated from it, so
// documentation cannot drift from the code. The paper itself publishes no
// quantitative tables (it is an architecture paper); these tables measure
// the claims its prose makes — see EXPERIMENTS.md for the mapping.
//
// An experiment whose rows gate a claim calls each printed row's Check; a
// broken claim fails the experiment like an error does: the harness prints
// "FAILED <id>: ...", runs the rest of the table, and exits non-zero.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/deploy"
	"repro/internal/enclave"
	"repro/internal/experiments"
	"repro/internal/headerspace"
	"repro/internal/openflow"
	"repro/internal/procplane"
	"repro/internal/switchsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// experiment couples an id and claim with its driver. Adding an entry here
// is the ONLY step needed to register a new experiment: -only validation
// and help text derive from this slice.
type experiment struct {
	id    string
	claim string
	run   func(iters int) error
}

// benchSeed drives every seeded experiment (-seed): the e5 flap sweep's
// randomized poll phases and the e16 fault-injection profiles. One value,
// one reproducible run.
var benchSeed int64 = 17

var experimentTable = []experiment{
	{"e1", "end-to-end query latency (Fig.1+2 round trip)", e1},
	{"e2", "HSA reachability cost vs rule count", e2},
	{"e3", "monitoring overhead: active polls and passive event path", e3},
	{"e4", "detection matrix: RVaaS vs baselines per attack", e4},
	{"e5", "flap detection: randomized vs fixed polling", e5},
	{"e6", "isolation-check cost (case study 1) vs tenant network size", e6},
	{"e7", "geo-check cost (case study 2) vs WAN size", e7},
	{"e8", "crypto budget: per-packet forwarding vs per-query signing", e8},
	{"e9", "multi-provider recursion cost vs chain length", e9},
	{"e10", "attestation handshake cost", e10},
	{"e12", "standing-invariant re-check: incremental vs naive re-query", e12},
	{"e13", "indexed dispatch: one incremental pass vs the exhaustive reference, event at the edge of a chain", e13},
	{"e14", "rule-delta overlap filter: one incremental pass vs the exhaustive reference, event at a hub", e14},
	{"e15", "client protocol: batch registration vs sequential round-trips; kill/restart restore + re-verify", e15},
	{"e16", "fault envelopes: trunk partition + channel loss vs detach-detect / stale-green / rejoin convergence", e16},
}

func experimentIDs() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}

func main() {
	// E16's placed labs spawn their switchd/agentd children as
	// re-executions of this binary, so the bench needs no prebuilt child
	// binaries on PATH (mirrors the deploy package's e2e harness).
	if len(os.Args) > 1 && os.Args[1] == "--placed-child" {
		runPlacedChild()
		return
	}
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func runPlacedChild() {
	log.SetFlags(0)
	mf, err := procplane.ReadManifest(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch mf.Kind {
	case procplane.KindSwitchd:
		err = procplane.RunSwitchd(ctx, mf, log.Printf)
	case procplane.KindAgentd:
		err = procplane.RunAgentd(ctx, mf, log.Printf)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchharness", flag.ContinueOnError)
	iters := fs.Int("iters", 10, "iterations per latency measurement")
	only := fs.String("only", "", "run a comma-separated subset of experiments ("+strings.Join(experimentIDs(), ",")+")")
	seed := fs.Int64("seed", 17, "RNG seed threaded through the seeded experiments (e5 poll phases, e16 fault profiles)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *iters < 1 {
		*iters = 1
	}
	benchSeed = *seed

	want := make(map[string]bool)
	if *only != "" {
		valid := make(map[string]bool, len(experimentTable))
		for _, e := range experimentTable {
			valid[e.id] = true
		}
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			if !valid[id] {
				return fmt.Errorf("unknown experiment %q (have: %s)", id, strings.Join(experimentIDs(), ","))
			}
			want[id] = true
		}
	}

	var failed []string
	for _, e := range experimentTable {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		header(e.id, e.claim)
		// One red experiment must not discard the others' results: record
		// the failure, run the rest of the table, and fail at the end.
		if err := e.run(*iters); err != nil {
			fmt.Printf("FAILED %s: %v\n", e.id, err)
			failed = append(failed, e.id)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed experiments: %s", strings.Join(failed, ","))
	}
	return nil
}

func header(id, claim string) {
	fmt.Printf("\n=== %s: %s ===\n", strings.ToUpper(id), claim)
}

// check runs every row's Check; the joined error names each row and
// predicate that broke.
func check[R interface{ Check() error }](rows []R) error {
	errs := make([]error, len(rows))
	for i, r := range rows {
		errs[i] = r.Check()
	}
	return errors.Join(errs...)
}

func e1(iters int) error {
	fmt.Printf("%-12s %-9s %-7s %-26s %-12s %-12s\n",
		"topology", "switches", "rules", "kind", "mean", "per-switch")
	for _, nt := range experiments.StandardSweep() {
		for _, kind := range []wire.QueryKind{wire.QueryReachableDestinations, wire.QueryGeoRegions} {
			row, err := experiments.QueryLatency(nt, kind, iters)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", nt.Name, kind, err)
			}
			fmt.Printf("%-12s %-9d %-7d %-26s %-12s %-12s\n",
				row.Topology, row.Switches, row.Rules, row.Kind,
				row.Mean.Round(time.Microsecond), row.PerSwitch.Round(time.Microsecond))
		}
	}
	return nil
}

func e2(int) error {
	fmt.Printf("%-10s %-10s %-14s\n", "rules", "switches", "reach time")
	for _, cfg := range []struct{ switches, rulesPer int }{
		{4, 10}, {4, 100}, {16, 10}, {16, 100}, {32, 100}, {32, 250},
	} {
		net, inject := buildHSAChain(cfg.switches, cfg.rulesPer)
		start := time.Now()
		const reps = 5
		for i := 0; i < reps; i++ {
			net.Reach(1, 1, inject, headerspace.ReachOptions{})
		}
		elapsed := time.Since(start) / reps
		fmt.Printf("%-10d %-10d %-14s\n", cfg.switches*cfg.rulesPer, cfg.switches, elapsed.Round(time.Microsecond))
	}
	return nil
}

// buildHSAChain programs a chain of switches with rulesPer distinct
// destination-prefix rules each (all forwarding right), returning the
// network and an injection space matching one of them.
func buildHSAChain(switches, rulesPer int) (*headerspace.Network, headerspace.Space) {
	net := headerspace.NewNetwork(wire.HeaderWidth)
	for s := 1; s <= switches; s++ {
		tf := headerspace.NewTransferFunction(wire.HeaderWidth)
		for r := 0; r < rulesPer; r++ {
			match := wire.FieldHeader(wire.FieldIPDst, uint64(0x0A000000+r), 0xFFFFFFFF)
			_ = tf.AddRule(headerspace.Rule{
				Priority: r, Match: match,
				OutPorts: []headerspace.PortID{2},
			})
		}
		_ = net.AddNode(headerspace.NodeID(s), tf)
	}
	for s := 1; s < switches; s++ {
		net.AddLink(headerspace.Link{
			FromNode: headerspace.NodeID(s), FromPort: 2,
			ToNode: headerspace.NodeID(s + 1), ToPort: 1,
		})
	}
	inject := headerspace.NewSpace(wire.HeaderWidth,
		wire.FieldHeader(wire.FieldIPDst, 0x0A000000, 0xFFFFFFFF))
	return net, inject
}

func e3(int) error {
	fmt.Printf("%-12s %-9s %-14s %-16s\n", "topology", "switches", "poll-all mean", "event ingest")
	for _, nt := range experiments.StandardSweep() {
		row, err := experiments.MonitoringOverhead(nt, 5, 100)
		if err != nil {
			return fmt.Errorf("%s: %w", nt.Name, err)
		}
		fmt.Printf("%-12s %-9d %-14s %-16s\n",
			row.Topology, row.Switches,
			row.PollAllMean.Round(time.Microsecond), row.EventApply.Round(time.Microsecond))
	}
	return nil
}

func e4(int) error {
	fmt.Println("-- lying provider (paper threat model):")
	lying := experiments.DetectionMatrix(true)
	fmt.Print(experiments.FormatMatrix(lying))
	fmt.Println("-- honest provider (ablation):")
	honest := experiments.DetectionMatrix(false)
	fmt.Print(experiments.FormatMatrix(honest))
	return nil
}

func e5(int) error {
	rows, err := experiments.FlapSweep(
		[]float64{0.1, 0.3, 0.5, 0.7, 0.9}, 10*time.Second, 600*time.Second, benchSeed)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-12s %-12s\n", "duty cycle", "fixed", "randomized")
	for _, r := range rows {
		fmt.Printf("%-12.1f %-12.2f %-12.2f\n", r.WindowFraction, r.FixedRate, r.RandomRate)
	}
	return nil
}

func e6(iters int) error {
	fmt.Printf("%-12s %-9s %-12s\n", "tenants", "switches", "query mean")
	for _, n := range []int{4, 8, 16} {
		clientIDs := make([]uint64, n)
		for i := range clientIDs {
			clientIDs[i] = uint64(i/2 + 1) // two access points per tenant
		}
		nt := experiments.NamedTopology{
			Name: fmt.Sprintf("linear-%d", n),
			Build: func() (*topology.Topology, error) {
				return topology.Linear(n, clientIDs)
			},
		}
		row, err := experiments.IsolationLatency(nt, iters)
		if err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		fmt.Printf("%-12d %-9d %-12s\n", n/2, row.Switches, row.Mean.Round(time.Microsecond))
	}
	return nil
}

func e7(iters int) error {
	fmt.Printf("%-12s %-9s %-12s\n", "regions", "switches", "query mean")
	for _, per := range []int{2, 4, 8} {
		nt := experiments.NamedTopology{
			Name: fmt.Sprintf("wan-3x%d", per),
			Build: func() (*topology.Topology, error) {
				return topology.MultiRegionWAN(
					[]topology.Region{"eu-west", "offshore", "us-east"}, per)
			},
		}
		row, err := experiments.QueryLatency(nt, wire.QueryGeoRegions, iters)
		if err != nil {
			return fmt.Errorf("per=%d: %w", per, err)
		}
		fmt.Printf("%-12d %-9d %-12s\n", 3, row.Switches, row.Mean.Round(time.Microsecond))
	}
	return nil
}

func e8(int) error {
	// Per-packet data-plane cost: one switch forwarding.
	sw := switchsim.New(1, 4, func(topology.PortNo, *wire.Packet) {})
	sw.InstallDirect(openflow.FlowEntry{
		Priority: 100,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: 0x0A000001, Mask: 0xFFFFFFFF},
		}},
		Actions: []openflow.Action{openflow.Output(2)},
	})
	pkt := &wire.Packet{
		EthType: wire.EthTypeIPv4, IPDst: 0x0A000001,
		IPProto: wire.IPProtoUDP, TTL: 64,
	}
	const pkts = 200000
	start := time.Now()
	for i := 0; i < pkts; i++ {
		sw.ProcessPacket(1, pkt, 0)
	}
	perPacket := time.Since(start) / pkts

	// Per-query control-plane crypto: Ed25519 sign + verify. The key-quote
	// check is per pinned key, not per query (E10).
	platform, err := enclave.NewPlatform()
	if err != nil {
		return err
	}
	encl, err := platform.Launch([]byte("rvaas-controller-v1"))
	if err != nil {
		return err
	}
	msg := make([]byte, 512)
	const sigs = 2000
	start = time.Now()
	for i := 0; i < sigs; i++ {
		_ = encl.Sign(msg)
	}
	perSign := time.Since(start) / sigs
	sig := encl.Sign(msg)
	start = time.Now()
	for i := 0; i < sigs; i++ {
		enclave.VerifyFrom(encl.PublicKey(), msg, sig)
	}
	perVerify := time.Since(start) / sigs

	fmt.Printf("%-32s %s\n", "data-plane forward (per packet)", perPacket)
	fmt.Printf("%-32s %s\n", "enclave sign (per query)", perSign)
	fmt.Printf("%-32s %s\n", "signature verify (per query)", perVerify)
	fmt.Printf("ratio: one query costs ~%d packet-forwards of crypto — none of it on the data path\n",
		(perSign+perVerify)/perPacket)
	return nil
}

func e9(int) error {
	fmt.Printf("%-10s %-14s %-10s\n", "providers", "query time", "endpoints")
	for _, n := range []int{1, 2, 4, 8} {
		elapsed, eps, err := experiments.MultiProviderChain(n)
		if err != nil {
			return fmt.Errorf("n=%d: %w", n, err)
		}
		fmt.Printf("%-10d %-14s %-10d\n", n, elapsed.Round(time.Microsecond), eps)
	}
	return nil
}

func e10(int) error {
	platform, err := enclave.NewPlatform()
	if err != nil {
		return err
	}
	encl, err := platform.Launch([]byte("rvaas-controller-v1"))
	if err != nil {
		return err
	}
	const reps = 2000
	var rd [64]byte // fresh report data: KeyQuote() itself is a cached copy
	start := time.Now()
	for i := 0; i < reps; i++ {
		binary.BigEndian.PutUint64(rd[:], uint64(i))
		_ = encl.QuoteFor(rd)
	}
	genTime := time.Since(start) / reps
	q := encl.KeyQuote()
	start = time.Now()
	for i := 0; i < reps; i++ {
		_ = enclave.VerifyKeyQuote(platform.RootKey(), q, encl.Measurement(), encl.PublicKey())
	}
	verTime := time.Since(start) / reps

	// What that leaves per message, on a live agent and a genuine reply.
	topo, err := topology.Linear(2, nil)
	if err != nil {
		return err
	}
	d, err := deploy.New(topo, deploy.Options{})
	if err != nil {
		return err
	}
	defer d.Close()
	ag := d.Agent(topo.AccessPoints()[0].ClientID)
	resp, err := ag.Query(wire.QueryReachableDestinations, nil, "")
	timeVerify := func(repin bool) time.Duration {
		start := time.Now()
		for i := 0; i < reps && err == nil; i++ {
			if repin {
				ag.PinServerKey(d.RVaaS.PublicKey())
			}
			err = ag.VerifyResponse(resp)
		}
		return time.Since(start) / reps
	}
	firstTime, laterTime := timeVerify(true), timeVerify(false)
	if err != nil {
		return err
	}
	fmt.Printf("%-52s %s\n", "quote generation (once, at enclave launch)", genTime)
	fmt.Printf("%-52s %s\n", "quote verification (once per pinned key)", verTime)
	fmt.Printf("%-52s %d bytes\n", "quote size", len(q.Marshal()))
	fmt.Printf("%-52s %s\n", "message verify — first under a key (quote + sig)", firstTime)
	fmt.Printf("%-52s %s\n", "message verify — subsequent (signature only)", laterTime)
	return nil
}

func e12(iters int) error {
	fmt.Printf("%-12s %-9s %-6s %-11s %-14s %-14s %-8s\n",
		"topology", "switches", "subs", "evals/check", "incremental", "naive", "speedup")
	rows, err := experiments.SubscriptionSweep(iters)
	for _, r := range rows {
		fmt.Printf("%-12s %-9d %-6d %-11.1f %-14s %-14s %-8.1f\n",
			r.Topology, r.Switches, r.Subs, r.EvalsPerCheck,
			r.IncrementalMean.Round(time.Microsecond),
			r.NaiveMean.Round(time.Microsecond), r.Speedup)
	}
	return errors.Join(err, check(rows))
}

func e13(iters int) error { return recheckTable(experiments.RecheckEdge, iters) }
func e14(iters int) error { return recheckTable(experiments.RecheckHub, iters) }

// recheckTable prints and checks one site of the E13/E14 sweep.
func recheckTable(site experiments.RecheckSite, iters int) error {
	fmt.Printf("%-10s %-6s %-4s %-7s %-10s %-8s %-16s %-12s %-12s %-12s %-8s\n",
		"topology", "subs", "iso", "bucket", "evaluated", "skipped", "iso-swept/reused", "exhaustive", "incremental", "1-worker", "speedup")
	rows, err := experiments.RecheckSweep(site, iters)
	for _, r := range rows {
		fmt.Printf("%-10s %-6d %-4d %-7d %-10d %-8d %-16s %-12s %-12s %-12s %-8.1f\n",
			r.Topology, r.Subs, r.IsoSubs, r.Bucket, r.Evaluated, r.DeltaSkipped,
			fmt.Sprintf("%d/%d", r.IsoSwept, r.IsoReused),
			r.ExhaustiveMedian.Round(time.Microsecond),
			r.IncrementalMedian.Round(time.Microsecond),
			r.OneWorkerMedian.Round(time.Microsecond),
			r.Speedup)
	}
	return errors.Join(err, check(rows))
}

func e15(iters int) error {
	fmt.Printf("%-12s %-7s %-14s %-14s %-8s %-16s %-9s %-11s\n",
		"topology", "subs", "sequential", "batch", "speedup", "restart-restore", "restored", "reverified")
	rows, err := experiments.ProtocolSweep(iters)
	for _, r := range rows {
		fmt.Printf("%-12s %-7d %-14s %-14s %-8.1f %-16s %-9d %-11d\n",
			r.Topology, r.Subs,
			r.SequentialTotal.Round(time.Millisecond),
			r.BatchTotal.Round(time.Millisecond),
			r.Speedup,
			r.RestartRestore.Round(time.Millisecond),
			r.Restored, r.Reverified)
	}
	return errors.Join(err, check(rows))
}

func e16(int) error {
	fmt.Printf("%-10s %-6s %-11s %-15s %-18s %-12s %-9s %-10s %-12s\n",
		"lab", "loss%", "partition", "detach-detect", "reattach-converge", "stale-green", "rejoins", "ch-dropped", "ch-reordered")
	childCmd := func(string) []string { return []string{os.Args[0], "--placed-child"} }
	rows, err := experiments.FaultEnvelopeSweep(childCmd, nil, benchSeed)
	for _, r := range rows {
		fmt.Printf("%-10s %-6d %-11s %-15s %-18s %-12d %-9d %-10d %-12d\n",
			r.Lab, r.LossPct, r.Partition,
			r.DetachDetect.Round(time.Millisecond),
			r.ReattachConverge.Round(time.Millisecond),
			r.StaleGreen, r.Rejoins, r.ChannelDropped, r.ChannelReordered)
	}
	return errors.Join(err, check(rows))
}
