package main

import (
	"runtime"
	"time"

	"repro/internal/enclave"
	"repro/internal/headerspace"
	"repro/internal/openflow"
	"repro/internal/rvaas"
	"repro/internal/wire"
)

// timeOp runs f n times on one goroutine and returns the mean time in
// microseconds and the mean heap allocations per call.
func timeOp(n int, f func()) (us, allocs float64) {
	f() // warm caches and lazy set-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	took := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(took) / 1e3 / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// scope is the header space of a destination-IP constraint, built the way
// the controller scopes a query.
func scope(ip uint32) headerspace.Space {
	c := dstConstraint(ip)
	h, err := headerspace.AllX(wire.HeaderWidth).Intersect(wire.FieldHeader(c.Field, c.Value, c.Mask))
	if err != nil {
		panic(err) // equal widths by construction
	}
	return headerspace.NewSpace(wire.HeaderWidth, h)
}

// directLayers calls single layers directly on inputs captured from the
// running workload, after its windows: reach on the workload's own anchors
// and scopes against the live compiled network, compile on the last tapped
// flow table, sign/verify and envelope coding on the last verified
// notification (or an equivalent one where the workload has no probes).
func (e *env) directLayers() map[string]float64 {
	m := map[string]float64{}

	net := e.d.RVaaS.CompiledNetwork()
	i := 0
	m["headerspace.reach_us"], m["headerspace.reach_allocs"] = timeOp(2000, func() {
		src, dst := e.aps[i%(len(e.aps)-1)], e.aps[i%(len(e.aps)-1)+1]
		i++
		net.ReachFootprint(headerspace.NodeID(src.Endpoint.Switch), headerspace.PortID(src.Endpoint.Port),
			scope(dst.HostIP), headerspace.ReachOptions{})
	})

	e.tapMu.Lock()
	table, ports := e.lastTable, e.lastPorts
	e.tapMu.Unlock()
	if table == nil {
		// No event was tapped (query-closed): the first switch's live table.
		sw := e.d.Fabric.Switch(e.d.Topology.Switches()[0])
		table, ports = sw.Table(), sw.Ports()
	}
	m["openflow.compile_us"], m["openflow.compile_allocs"] = timeOp(500, func() {
		openflow.BuildTransferFunction(table, ports)
	})

	note := e.lastNote.Load()
	if note == nil {
		note = &wire.Notification{
			Version: wire.CurrentVersion, Event: wire.NotifyViolation,
			Kind: wire.QueryReachableDestinations, Status: wire.StatusViolation,
			SubID: 1, Nonce: 1, Seq: 1, SnapshotID: e.d.RVaaS.SnapshotID(),
			Detail: "no reachable destinations for scoped traffic",
			Quote:  e.d.RVaaS.KeyQuote().Marshal(),
		}
	}
	signing := note.SigningBytes()
	// A fresh enclave on the deployment's platform: same code path and key
	// type as the controller's, whose private key never leaves it.
	encl, err := e.d.Platform.Launch([]byte(rvaas.CodeIdentity))
	if err != nil {
		e.problemf("launch enclave for direct measurement: %v", err)
		return m
	}
	var sig []byte
	m["enclave.sign_us"], _ = timeOp(2000, func() { sig = encl.Sign(signing) })
	quote, pub := encl.KeyQuote(), encl.PublicKey()
	// What the client does per message: check the key quote, then the
	// signature.
	m["enclave.verify_us"], _ = timeOp(2000, func() {
		if enclave.VerifyKeyQuote(e.d.Platform.RootKey(), quote, rvaas.Measurement(), pub) != nil ||
			!enclave.VerifyFrom(pub, signing, sig) {
			e.problemf("direct verify of a fresh signature failed")
		}
	})

	env := &wire.Envelope{Version: wire.EnvelopeVersion, Op: wire.OpNotify, CorrelationID: note.Nonce, Body: note.Marshal()}
	var frame []byte
	m["wire.envelope_marshal_us"], _ = timeOp(5000, func() {
		env.Body = note.Marshal()
		frame = env.Marshal()
	})
	m["wire.envelope_unmarshal_us"], _ = timeOp(5000, func() {
		got, err := wire.UnmarshalEnvelope(frame)
		if err == nil {
			_, err = wire.UnmarshalNotification(got.Body)
		}
		if err != nil {
			e.problemf("direct envelope decode: %v", err)
		}
	})
	m["wire.notification_bytes"] = float64(len(frame))
	return m
}
