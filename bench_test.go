// Package repro hosts the benchmark harness: one testing.B benchmark per
// experiment in DESIGN.md / EXPERIMENTS.md (the paper publishes no
// quantitative tables; these measure its prose claims — see EXPERIMENTS.md).
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/deploy"
	"repro/internal/enclave"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/headerspace"
	"repro/internal/openflow"
	"repro/internal/switchsim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// ---------------------------------------------------------------- E1 ----

// BenchmarkE1QueryLatency measures the full Figure-1+2 round trip: in-band
// query injection, Packet-In interception, header-space analysis, in-band
// endpoint authentication, enclave signing, and verified response delivery.
func BenchmarkE1QueryLatency(b *testing.B) {
	for _, nt := range experiments.StandardSweep() {
		for _, kind := range []wire.QueryKind{wire.QueryReachableDestinations, wire.QueryGeoRegions} {
			b.Run(fmt.Sprintf("%s/%s", nt.Name, kind), func(b *testing.B) {
				topo, err := nt.Build()
				if err != nil {
					b.Fatal(err)
				}
				d, err := deploy.New(topo, deploy.Options{AuthTimeout: 500 * time.Millisecond})
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				aps := topo.AccessPoints()
				agent := d.Agent(aps[0].ClientID)
				constraints := []wire.FieldConstraint{
					{Field: wire.FieldIPDst, Value: uint64(aps[len(aps)-1].HostIP), Mask: 0xFFFFFFFF},
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := agent.Query(kind, constraints, ""); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------- E2 ----

// BenchmarkE2HSAReachability measures logical verification cost versus
// installed rule count and network size.
func BenchmarkE2HSAReachability(b *testing.B) {
	for _, cfg := range []struct{ switches, rulesPer int }{
		{4, 10}, {4, 100}, {16, 100}, {32, 250},
	} {
		name := fmt.Sprintf("sw%d-rules%d", cfg.switches, cfg.switches*cfg.rulesPer)
		b.Run(name, func(b *testing.B) {
			net, inject := buildHSAChain(cfg.switches, cfg.rulesPer)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Reach(1, 1, inject, headerspace.ReachOptions{})
			}
		})
	}
}

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

// --------------------------------------------------------------- E11 ----

// BenchmarkReachParallel measures one full "which sources can reach me"
// injection sweep (ReachAll over every edge port) at growing worker counts
// on the fattree and grid topologies. The compiled network is built once —
// through the controller's compile cache — and shared read-only by all
// workers, so the benchmark isolates traversal parallelism. On a multi-core
// machine the 4-worker rows show ≥2× the serial throughput; on a single
// core all rows degenerate to the serial path.
func BenchmarkReachParallel(b *testing.B) {
	tops := []experiments.NamedTopology{
		{Name: "fattree-4", Build: func() (*topology.Topology, error) { return topology.FatTree(4) }},
		{Name: "grid-4x4", Build: func() (*topology.Topology, error) { return topology.Grid(4, 4) }},
	}
	for _, nt := range tops {
		topo, err := nt.Build()
		if err != nil {
			b.Fatal(err)
		}
		d, err := deploy.New(topo, deploy.Options{SkipAgents: true})
		if err != nil {
			b.Fatal(err)
		}
		net := d.RVaaS.CompiledNetwork()
		points := experiments.EdgePoints(topo)
		aps := topo.AccessPoints()
		space := headerspace.NewSpace(wire.HeaderWidth,
			wire.FieldHeader(wire.FieldIPDst, uint64(aps[len(aps)-1].HostIP), 0xFFFFFFFF))
		for _, workers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/points-%d/workers-%d", nt.Name, len(points), workers), func(b *testing.B) {
				opt := headerspace.ReachOptions{Parallelism: workers}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.ReachAll(points, space, opt)
				}
			})
		}
		d.Close()
	}
}

// BenchmarkSnapshotCompileCache contrasts a query-path network fetch on an
// unchanged snapshot (pure cache hit) with the same fetch after a one-switch
// change (incremental recompile of that switch only). The win over the old
// full recompile grows linearly with switch count.
func BenchmarkSnapshotCompileCache(b *testing.B) {
	topo, err := topology.FatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{SkipAgents: true})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.Run("hit", func(b *testing.B) {
		d.RVaaS.CompiledNetwork() // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.RVaaS.CompiledNetwork()
		}
	})
	b.Run("one-switch-change", func(b *testing.B) {
		sw := topo.Switches()[0]
		for i := 0; i < b.N; i++ {
			before := d.RVaaS.SnapshotID()
			e := openflow.FlowEntry{
				Priority: uint16(5000 + i%1000),
				Match: openflow.Match{Fields: []openflow.FieldMatch{
					{Field: wire.FieldIPDst, Value: uint64(0x0C000000 + i), Mask: 0xFFFFFFFF},
				}},
				Actions: []openflow.Action{openflow.Output(1)},
			}
			d.Fabric.Switch(sw).InstallDirect(e)
			// Wait for the passive event so the change is in the snapshot,
			// then rebuild (recompiles only sw).
			for d.RVaaS.SnapshotID() == before {
				time.Sleep(10 * time.Microsecond)
			}
			d.RVaaS.CompiledNetwork()
		}
	})
}

// ---------------------------------------------------------------- E3 ----

// BenchmarkE3Monitoring measures the active-poll path (full state fetch of
// every switch) and the passive event-ingestion path.
func BenchmarkE3Monitoring(b *testing.B) {
	for _, nt := range experiments.StandardSweep() {
		b.Run("poll-all/"+nt.Name, func(b *testing.B) {
			topo, err := nt.Build()
			if err != nil {
				b.Fatal(err)
			}
			d, err := deploy.New(topo, deploy.Options{SkipAgents: true})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.RVaaS.PollAll(5 * time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("passive-event", func(b *testing.B) {
		topo, err := topology.Linear(4, nil)
		if err != nil {
			b.Fatal(err)
		}
		d, err := deploy.New(topo, deploy.Options{SkipAgents: true})
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		before := d.RVaaS.Stats().PassiveEvents
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := openflow.FlowEntry{
				Priority: uint16(3000 + i%1000),
				Match: openflow.Match{Fields: []openflow.FieldMatch{
					{Field: wire.FieldIPDst, Value: uint64(0x0B000000 + i), Mask: 0xFFFFFFFF},
				}},
				Actions: []openflow.Action{openflow.Output(1)},
			}
			d.Fabric.Switch(1).InstallDirect(e)
			d.Fabric.Switch(1).RemoveDirect(e)
		}
		// Wait until the controller absorbed all 2*N events before stopping
		// the timer, so the measurement covers ingestion, not just emission.
		want := before + uint64(2*b.N)
		for d.RVaaS.Stats().PassiveEvents < want {
			time.Sleep(50 * time.Microsecond)
		}
	})
}

// ---------------------------------------------------------------- E4 ----

// BenchmarkE4Detection runs the full seven-attack detection matrix per
// iteration (the cost of the complete adversarial evaluation).
func BenchmarkE4Detection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiments.DetectionMatrix(true)
		score := experiments.DetectionScore(results)
		if score["rvaas"] != 7 {
			b.Fatalf("rvaas score %d/7", score["rvaas"])
		}
	}
}

// ---------------------------------------------------------------- E5 ----

// BenchmarkE5FlapDetection measures one full randomized-polling flap
// simulation (virtual horizon 300s, duty cycle 0.4).
func BenchmarkE5FlapDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FlapDetection(true, 4*time.Second, 10*time.Second, 300*time.Second, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// ---------------------------------------------------------------- E6 ----

// BenchmarkE6Isolation measures the isolation case study's full query on
// growing tenant networks.
func BenchmarkE6Isolation(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("switches-%d", n), func(b *testing.B) {
			clientIDs := make([]uint64, n)
			for i := range clientIDs {
				clientIDs[i] = uint64(i/2 + 1)
			}
			topo, err := topology.Linear(n, clientIDs)
			if err != nil {
				b.Fatal(err)
			}
			d, err := deploy.New(topo, deploy.Options{TenantRouting: true, AuthTimeout: 500 * time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			ap := topo.AccessPoints()[0]
			agent := d.Agent(ap.ClientID)
			constraints := []wire.FieldConstraint{
				{Field: wire.FieldIPDst, Value: uint64(ap.HostIP), Mask: 0xFFFFFFFF},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := agent.Query(wire.QueryIsolation, constraints, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------- E7 ----

// BenchmarkE7Geo measures the geo case study on growing WANs.
func BenchmarkE7Geo(b *testing.B) {
	for _, per := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("per-region-%d", per), func(b *testing.B) {
			topo, err := topology.MultiRegionWAN(
				[]topology.Region{"eu-west", "offshore", "us-east"}, per)
			if err != nil {
				b.Fatal(err)
			}
			d, err := deploy.New(topo, deploy.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			aps := topo.AccessPoints()
			agent := d.Agent(aps[0].ClientID)
			constraints := []wire.FieldConstraint{
				{Field: wire.FieldIPDst, Value: uint64(aps[len(aps)-1].HostIP), Mask: 0xFFFFFFFF},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := agent.Query(wire.QueryGeoRegions, constraints, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------- E8 ----

// BenchmarkE8CryptoBudget contrasts the crypto-free per-packet data path
// with the per-query control-path crypto, the paper's "no per-packet
// cryptographic operations" requirement (§III). The key-quote check is not
// in the per-query budget: it is paid once per pinned key (E10).
func BenchmarkE8CryptoBudget(b *testing.B) {
	b.Run("data-plane-forward", func(b *testing.B) {
		sw := switchsim.New(1, 4, func(topology.PortNo, *wire.Packet) {})
		sw.InstallDirect(openflow.FlowEntry{
			Priority: 100,
			Match: openflow.Match{Fields: []openflow.FieldMatch{
				{Field: wire.FieldIPDst, Value: 0x0A000001, Mask: 0xFFFFFFFF},
			}},
			Actions: []openflow.Action{openflow.Output(2)},
		})
		pkt := &wire.Packet{EthType: wire.EthTypeIPv4, IPDst: 0x0A000001, IPProto: wire.IPProtoUDP, TTL: 64}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sw.ProcessPacket(1, pkt, 0)
		}
	})
	platform, err := enclave.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	encl, err := platform.Launch([]byte("rvaas-controller-v1"))
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 512)
	b.Run("enclave-sign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = encl.Sign(msg)
		}
	})
	sig := encl.Sign(msg)
	b.Run("signature-verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !enclave.VerifyFrom(encl.PublicKey(), msg, sig) {
				b.Fatal("verify failed")
			}
		}
	})
}

// ---------------------------------------------------------------- E9 ----

// BenchmarkE9MultiProvider measures one recursive federation query per
// iteration across growing provider chains (setup excluded).
func BenchmarkE9MultiProvider(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("providers-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := experiments.MultiProviderChain(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --------------------------------------------------------------- E10 ----

// BenchmarkE10Attestation measures quote generation (paid once, at enclave
// launch) and verification (paid once per pinned key), then what that
// leaves per message on a live agent: the first reply under a freshly
// pinned key costs quote check + signature, every later one the signature.
func BenchmarkE10Attestation(b *testing.B) {
	platform, err := enclave.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	encl, err := platform.Launch([]byte("rvaas-controller-v1"))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("quote-generate", func(b *testing.B) {
		var rd [64]byte // fresh report data: KeyQuote() itself is a cached copy
		for i := 0; i < b.N; i++ {
			binary.BigEndian.PutUint64(rd[:], uint64(i))
			_ = encl.QuoteFor(rd)
		}
	})
	q := encl.KeyQuote()
	b.Run("quote-verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := enclave.VerifyKeyQuote(platform.RootKey(), q, encl.Measurement(), encl.PublicKey()); err != nil {
				b.Fatal(err)
			}
		}
	})

	topo, err := topology.Linear(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ag := d.Agent(topo.AccessPoints()[0].ClientID)
	resp, err := ag.Query(wire.QueryReachableDestinations, nil, "")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("message-verify/first-under-key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ag.PinServerKey(d.RVaaS.PublicKey())
			if err := ag.VerifyResponse(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("message-verify/subsequent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ag.VerifyResponse(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------- ablations ----

// BenchmarkAblationPollingStrategy contrasts fixed and randomized polling
// cost (the security difference is measured by E5; this shows the overhead
// difference is nil).
// ---------------------------------------------------------------- E12 ---

// BenchmarkE12SubscriptionRecheck measures the standing-invariant engine:
// incremental re-check of a subscription population after a single-switch
// change (dirty-set-aware; only invariants whose footprint crosses the
// dirty switch re-run) versus the naive full re-evaluation a client fleet
// would trigger by re-issuing every query.
func BenchmarkE12SubscriptionRecheck(b *testing.B) {
	topo, err := topology.Linear(40, nil)
	if err != nil {
		b.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{SkipAgents: true, ManualRecheck: true})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	aps := topo.AccessPoints()
	for i := 0; i+1 < len(aps); i++ {
		if _, err := d.RVaaS.Subscribe(aps[i].ClientID, wire.QueryReachableDestinations,
			[]wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(aps[i+1].HostIP), Mask: 0xFFFFFFFF}},
			"", aps[i].Endpoint); err != nil {
			b.Fatal(err)
		}
	}
	victim := topo.Switches()[len(topo.Switches())-1]
	churn := openflow.FlowEntry{
		Priority: 3000,
		Match: openflow.Match{Fields: []openflow.FieldMatch{
			{Field: wire.FieldIPDst, Value: uint64(wire.IPv4(203, 0, 113, 77)), Mask: 0xFFFFFFFF},
		}},
		Actions: []openflow.Action{openflow.Output(1)},
		Cookie:  0xE12B_0001,
	}
	// Wait on SnapshotID (not event counters): the id advances only once
	// the change is folded into the snapshot, which is what makes the
	// timed RecheckNow actually see a dirty switch.
	dirtyOnce := func(b *testing.B, i int) {
		want := d.RVaaS.SnapshotID() + 1
		if i%2 == 0 {
			d.Fabric.Switch(victim).InstallDirect(churn)
		} else {
			d.Fabric.Switch(victim).RemoveDirect(churn)
		}
		deadline := time.Now().Add(2 * time.Second)
		for d.RVaaS.SnapshotID() < want {
			if !time.Now().Before(deadline) {
				// Falling through silently would time a no-dirty recheck
				// and fake the incremental speedup.
				b.Fatal("churn event not absorbed into the snapshot")
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dirtyOnce(b, i)
			b.StartTimer()
			d.RVaaS.RecheckNow()
		}
	})
	b.Run("naive-requery", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.RVaaS.RevalidateAll()
		}
	})
}

// ---------------------------------------------------------- E13 / E14 ---

// BenchmarkE13E14Recheck times one re-verification pass over the
// experiments' 10⁴-invariant population after a verdict-neutral
// single-switch event — at the edge of linear-40 (E13) and at the hub of
// star-40 (E14) — on the incremental engine and on the exhaustive
// reference. The labs and the event are the sweep's own
// (experiments.RecheckLab).
func BenchmarkE13E14Recheck(b *testing.B) {
	for _, site := range []experiments.RecheckSite{experiments.RecheckEdge, experiments.RecheckHub} {
		lab, err := experiments.NewRecheckLab(site, 10000, 40, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, arm := range []struct {
			name string
			pass func()
		}{
			{"incremental", lab.D.RVaaS.RecheckNow},
			{"exhaustive", lab.D.RVaaS.RevalidateAll},
		} {
			b.Run(site.Experiment+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if err := lab.Event(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					arm.pass()
				}
			})
		}
		lab.Close()
	}
}

func BenchmarkAblationPollingStrategy(b *testing.B) {
	for _, randomized := range []bool{false, true} {
		name := "fixed"
		if randomized {
			name = "randomized"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.FlapDetection(randomized, 2*time.Second, 10*time.Second, 100*time.Second, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}

// BenchmarkAblationTenantVsAllPairs contrasts routing-compilation cost of
// the two provider strategies DESIGN.md calls out.
func BenchmarkAblationTenantVsAllPairs(b *testing.B) {
	build := func() *topology.Topology {
		clientIDs := make([]uint64, 12)
		for i := range clientIDs {
			clientIDs[i] = uint64(i/2 + 1)
		}
		topo, err := topology.Linear(12, clientIDs)
		if err != nil {
			b.Fatal(err)
		}
		return topo
	}
	b.Run("all-pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topo := build()
			fab, err := newFabric(topo)
			if err != nil {
				b.Fatal(err)
			}
			if err := controlplane.New(fab).InstallAllPairs(); err != nil {
				b.Fatal(err)
			}
			fab.Close()
		}
	})
	b.Run("tenant-isolated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topo := build()
			fab, err := newFabric(topo)
			if err != nil {
				b.Fatal(err)
			}
			if err := controlplane.New(fab).InstallTenantRouting(); err != nil {
				b.Fatal(err)
			}
			fab.Close()
		}
	})
}

func newFabric(topo *topology.Topology) (*fabric.Fabric, error) {
	return fabric.New(topo)
}
