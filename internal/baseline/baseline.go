// Package baseline implements the route-verification baselines the paper
// positions RVaaS against (§I): traceroute-style path probing and
// Duffield-Grossglauser trajectory sampling. Both depend on information
// reported by the provider's (possibly compromised) control plane, which is
// exactly why they fail under the paper's threat model: "an unreliable
// network operator may simply not reply with the correct information, also
// breaking any scheme based on packet labeling or tagging".
package baseline

import (
	"repro/internal/fabric"
	"repro/internal/topology"
	"repro/internal/wire"
)

// Detector is a route-verification mechanism judged by the detection-matrix
// experiment (E4): given a clean reference and the attacked network, does
// it notice the attack?
type Detector interface {
	Name() string
	// Baseline captures the detector's reference view of the clean network
	// for the victim flow.
	Baseline(env *Env) error
	// Detect re-examines the network after the attack and reports whether
	// the detector notices a deviation.
	Detect(env *Env) (bool, error)
}

// Env is the world a detector operates in.
type Env struct {
	Fabric   *fabric.Fabric
	Topology *topology.Topology
	// Victim flow under observation.
	SrcAP, DstAP topology.AccessPoint
	// L4Dst is the transport port of the observed flow's traffic class
	// (0 = the traceroute convention 33434).
	L4Dst uint16
	// Lying controls whether the compromised control plane falsifies its
	// answers to detector queries (it always does once compromised; the
	// flag exists so experiments can also measure the naive-honest case).
	Lying bool
	// GroundTruthPath is filled by the provider's report (possibly a lie).
	cleanPath []topology.SwitchID
}

// Traceroute models an operator-assisted traceroute service: the client
// asks the provider which path its flow takes and compares it to the path
// agreed upon. A compromised control plane simply keeps reporting the
// agreed path.
type Traceroute struct {
	agreed []topology.SwitchID
}

// Name implements Detector.
func (tr *Traceroute) Name() string { return "traceroute" }

// Baseline implements Detector.
func (tr *Traceroute) Baseline(env *Env) error {
	tr.agreed = env.reportedPath()
	return nil
}

// Detect implements Detector.
func (tr *Traceroute) Detect(env *Env) (bool, error) {
	now := env.reportedPath()
	if len(now) != len(tr.agreed) {
		return true, nil
	}
	for i := range now {
		if now[i] != tr.agreed[i] {
			return true, nil
		}
	}
	return false, nil
}

// reportedPath is what the provider's control plane claims the victim path
// is. When compromised (Lying), it reports the original agreed path
// regardless of the actual configuration.
func (e *Env) reportedPath() []topology.SwitchID {
	if e.cleanPath == nil {
		e.cleanPath = e.Topology.ShortestPath(e.SrcAP.Endpoint.Switch, e.DstAP.Endpoint.Switch)
	}
	if e.Lying {
		return e.cleanPath
	}
	// An honest control plane would derive the path from its own rules; in
	// this simulation the actual path equals the trace of a probe packet.
	return e.actualPath()
}

// actualPath sends one probe through the data plane and returns the switch
// path it actually took (ground truth; only an honest provider or RVaaS's
// in-band tests can observe this).
func (e *Env) actualPath() []topology.SwitchID {
	e.Fabric.SetTracing(true)
	defer e.Fabric.SetTracing(false)
	l4 := e.L4Dst
	if l4 == 0 {
		l4 = 33434
	}
	pkt := &wire.Packet{
		EthDst: e.DstAP.HostMAC, EthSrc: e.SrcAP.HostMAC, EthType: wire.EthTypeIPv4,
		IPSrc: e.SrcAP.HostIP, IPDst: e.DstAP.HostIP,
		IPProto: wire.IPProtoUDP, TTL: 64, L4Src: 33434, L4Dst: l4,
	}
	_ = e.Fabric.InjectFromHost(e.SrcAP.Endpoint, pkt)
	var path []topology.SwitchID
	seen := map[topology.SwitchID]bool{}
	add := func(sw topology.SwitchID) {
		if sw != 0 && !seen[sw] {
			seen[sw] = true
			path = append(path, sw)
		}
	}
	delivered := false
	for _, ev := range e.Fabric.Trace() {
		add(ev.From.Switch)
		if ev.Host {
			if ev.From == e.DstAP.Endpoint {
				delivered = true
			}
		} else {
			add(ev.To.Switch)
		}
	}
	if delivered {
		// End-host delivery is part of the observed trajectory: a probe
		// that crosses every switch but never arrives (last-hop drop) must
		// differ from a delivered one.
		path = append(path, deliveredMarker)
	}
	return path
}

// deliveredMarker is a pseudo switch id representing successful end-host
// delivery in an observed trajectory.
const deliveredMarker topology.SwitchID = 0xFFFFFFFF

// TrajectorySampling models hash-based trajectory sampling: switches report
// samples of forwarded packets to a collector operated by the provider. A
// compromised control plane filters the samples so the collector's view
// matches the agreed trajectory.
type TrajectorySampling struct {
	agreed map[topology.SwitchID]bool
}

// Name implements Detector.
func (ts *TrajectorySampling) Name() string { return "trajectory-sampling" }

// Baseline implements Detector.
func (ts *TrajectorySampling) Baseline(env *Env) error {
	ts.agreed = make(map[topology.SwitchID]bool)
	for _, sw := range env.actualPath() {
		ts.agreed[sw] = true
	}
	return nil
}

// Detect implements Detector.
func (ts *TrajectorySampling) Detect(env *Env) (bool, error) {
	samples := env.sampledSwitches()
	if len(samples) != len(ts.agreed) {
		return true, nil
	}
	for sw := range samples {
		if !ts.agreed[sw] {
			return true, nil
		}
	}
	return false, nil
}

// sampledSwitches is the set of switches whose samples the collector shows
// for the victim flow. The compromised provider censors any switch not on
// the agreed trajectory and fabricates samples for agreed switches the flow
// no longer crosses.
func (e *Env) sampledSwitches() map[topology.SwitchID]bool {
	actual := make(map[topology.SwitchID]bool)
	for _, sw := range e.actualPath() {
		actual[sw] = true
	}
	if !e.Lying {
		return actual
	}
	// Censor + fabricate: the collector's view equals the agreed path,
	// including a fabricated delivery record.
	agreed := make(map[topology.SwitchID]bool)
	if e.cleanPath == nil {
		e.cleanPath = e.Topology.ShortestPath(e.SrcAP.Endpoint.Switch, e.DstAP.Endpoint.Switch)
	}
	for _, sw := range e.cleanPath {
		agreed[sw] = true
	}
	agreed[deliveredMarker] = true
	return agreed
}

// Compile-time interface checks.
var (
	_ Detector = (*Traceroute)(nil)
	_ Detector = (*TrajectorySampling)(nil)
)
