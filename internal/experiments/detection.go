// Package experiments implements the paper-reproduction experiments listed
// in EXPERIMENTS.md. Each experiment is a plain function returning
// structured rows; cmd/benchharness is the one program that prints them, and
// unit tests run the same functions at toy scale. A row type that gates a
// claim carries it as a Check method next to its definition.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/controlplane"
	"repro/internal/deploy"
	"repro/internal/topology"
	"repro/internal/wire"
)

// DetectionResult is one cell of the E4 detection matrix.
type DetectionResult struct {
	Attack   string
	Detector string
	Detected bool
	Err      error
}

// rvaasCheck verifies an attack through RVaaS queries; it may capture clean
// reference state when built.
type rvaasCheck func(d *deploy.Deployment) (bool, error)

// scenario couples an attack with the topology it needs and the RVaaS query
// that should expose it.
type scenario struct {
	name  string
	build func() (*deploy.Deployment, *baseline.Env, controlplane.Attack, rvaasCheck, error)
	// execute performs the attack phase; default is launch + poll.
	execute func(d *deploy.Deployment, atk controlplane.Attack) error
}

func defaultExecute(d *deploy.Deployment, atk controlplane.Attack) error {
	if err := atk.Launch(d.Provider); err != nil {
		return err
	}
	return d.RVaaS.PollAll(2 * time.Second)
}

func newEnv(d *deploy.Deployment, src, dst topology.AccessPoint, lying bool) *baseline.Env {
	return &baseline.Env{
		Fabric:   d.Fabric,
		Topology: d.Topology,
		SrcAP:    src,
		DstAP:    dst,
		Lying:    lying,
	}
}

func ipConstraint(ip uint32) []wire.FieldConstraint {
	return []wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(ip), Mask: 0xFFFFFFFF}}
}

// scenarios builds the six attack scenarios of the matrix.
func scenarios(lying bool) []scenario {
	return []scenario{
		{
			name: "traffic-diversion",
			build: func() (*deploy.Deployment, *baseline.Env, controlplane.Attack, rvaasCheck, error) {
				topo, err := topology.Grid(3, 3)
				if err != nil {
					return nil, nil, nil, nil, err
				}
				d, err := deploy.New(topo, deploy.Options{})
				if err != nil {
					return nil, nil, nil, nil, err
				}
				aps := topo.AccessPoints()
				src, victim := aps[0], aps[1]
				atk := &controlplane.TrafficDiversion{VictimIP: victim.HostIP, Detour: 9}
				agent := d.Agent(src.ClientID)
				// Clean reference: the max path length toward the victim.
				clean, err := agent.Query(wire.QueryPathLength, ipConstraint(victim.HostIP), "1000")
				if err != nil {
					d.Close()
					return nil, nil, nil, nil, err
				}
				bound := clean.Detail
				check := func(d *deploy.Deployment) (bool, error) {
					resp, err := agent.Query(wire.QueryPathLength, ipConstraint(victim.HostIP), bound)
					if err != nil {
						return false, err
					}
					return resp.Status == wire.StatusViolation, nil
				}
				return d, newEnv(d, src, victim, lying), atk, check, nil
			},
		},
		{
			name: "exfiltration",
			build: func() (*deploy.Deployment, *baseline.Env, controlplane.Attack, rvaasCheck, error) {
				topo, err := topology.Grid(2, 2)
				if err != nil {
					return nil, nil, nil, nil, err
				}
				d, err := deploy.New(topo, deploy.Options{})
				if err != nil {
					return nil, nil, nil, nil, err
				}
				aps := topo.AccessPoints()
				src, victim := aps[0], aps[3]
				tap, err := freeEdgePort(topo, victim.Endpoint.Switch)
				if err != nil {
					d.Close()
					return nil, nil, nil, nil, err
				}
				atk := &controlplane.Exfiltration{VictimIP: victim.HostIP, Tap: tap}
				agent := d.Agent(src.ClientID)
				clean, err := agent.Query(wire.QueryReachableDestinations, ipConstraint(victim.HostIP), "")
				if err != nil {
					d.Close()
					return nil, nil, nil, nil, err
				}
				cleanCount := len(clean.Endpoints)
				check := func(d *deploy.Deployment) (bool, error) {
					resp, err := agent.Query(wire.QueryReachableDestinations, ipConstraint(victim.HostIP), "")
					if err != nil {
						return false, err
					}
					return len(resp.Endpoints) != cleanCount, nil
				}
				return d, newEnv(d, src, victim, lying), atk, check, nil
			},
		},
		{
			name: "join-attack",
			build: func() (*deploy.Deployment, *baseline.Env, controlplane.Attack, rvaasCheck, error) {
				topo, err := topology.Linear(4, []uint64{1, 1, 2, 2})
				if err != nil {
					return nil, nil, nil, nil, err
				}
				d, err := deploy.New(topo, deploy.Options{TenantRouting: true})
				if err != nil {
					return nil, nil, nil, nil, err
				}
				aps := topo.AccessPoints()
				victim := aps[0]
				atk := &controlplane.JoinAttack{
					VictimIP:   victim.HostIP,
					SecretAP:   aps[2].Endpoint,
					AttackerIP: wire.IPv4(172, 16, 6, 6),
				}
				agent := d.Agent(victim.ClientID)
				check := func(d *deploy.Deployment) (bool, error) {
					resp, err := agent.Query(wire.QueryIsolation, ipConstraint(victim.HostIP), "")
					if err != nil {
						return false, err
					}
					return resp.Status == wire.StatusViolation, nil
				}
				// The baseline flow observes client 1's legitimate partner
				// traffic (aps[1] -> aps[0]); the join attack does not
				// change it, which is exactly why path-based baselines are
				// blind to join attacks.
				return d, newEnv(d, aps[1], victim, lying), atk, check, nil
			},
		},
		{
			name: "geo-violation",
			build: func() (*deploy.Deployment, *baseline.Env, controlplane.Attack, rvaasCheck, error) {
				topo, err := topology.MultiRegionWAN([]topology.Region{"eu-west", "offshore", "us-east"}, 3)
				if err != nil {
					return nil, nil, nil, nil, err
				}
				d, err := deploy.New(topo, deploy.Options{})
				if err != nil {
					return nil, nil, nil, nil, err
				}
				var src, dst topology.AccessPoint
				for _, ap := range topo.AccessPoints() {
					switch topo.RegionOf(ap.Endpoint.Switch) {
					case "eu-west":
						src = ap
					case "us-east":
						dst = ap
					}
				}
				var offshore topology.SwitchID
				for _, sw := range topo.Switches() {
					if topo.RegionOf(sw) == "offshore" {
						offshore = sw
						break
					}
				}
				atk := &controlplane.GeoViolation{SrcIP: src.HostIP, DstIP: dst.HostIP, Via: offshore}
				agent := d.Agent(src.ClientID)
				check := func(d *deploy.Deployment) (bool, error) {
					resp, err := agent.Query(wire.QueryGeoRegions, ipConstraint(dst.HostIP), "offshore")
					if err != nil {
						return false, err
					}
					return resp.Status == wire.StatusViolation, nil
				}
				return d, newEnv(d, src, dst, lying), atk, check, nil
			},
		},
		{
			name: "neutrality-violation",
			build: func() (*deploy.Deployment, *baseline.Env, controlplane.Attack, rvaasCheck, error) {
				topo, err := topology.Linear(3, nil)
				if err != nil {
					return nil, nil, nil, nil, err
				}
				d, err := deploy.New(topo, deploy.Options{})
				if err != nil {
					return nil, nil, nil, nil, err
				}
				aps := topo.AccessPoints()
				src, victim := aps[0], aps[2]
				atk := &controlplane.NeutralityViolation{VictimIP: victim.HostIP, L4Dst: 443}
				agent := d.Agent(src.ClientID)
				constraints := append(ipConstraint(victim.HostIP),
					wire.FieldConstraint{Field: wire.FieldIPProto, Value: uint64(wire.IPProtoUDP), Mask: 0xFF},
					wire.FieldConstraint{Field: wire.FieldL4Dst, Value: 443, Mask: 0xFFFF},
				)
				check := func(d *deploy.Deployment) (bool, error) {
					resp, err := agent.Query(wire.QueryNeutrality, constraints, "")
					if err != nil {
						return false, err
					}
					return resp.Status == wire.StatusViolation, nil
				}
				env := newEnv(d, src, victim, lying)
				env.L4Dst = 443 // observe the throttled class itself
				return d, env, atk, check, nil
			},
		},
		{
			name: "meter-throttle",
			build: func() (*deploy.Deployment, *baseline.Env, controlplane.Attack, rvaasCheck, error) {
				topo, err := topology.Linear(3, nil)
				if err != nil {
					return nil, nil, nil, nil, err
				}
				d, err := deploy.New(topo, deploy.Options{})
				if err != nil {
					return nil, nil, nil, nil, err
				}
				aps := topo.AccessPoints()
				src, victim := aps[0], aps[2]
				atk := &controlplane.MeterThrottle{VictimIP: victim.HostIP, L4Dst: 443, RateKbps: 8}
				agent := d.Agent(src.ClientID)
				constraints := append(ipConstraint(victim.HostIP),
					wire.FieldConstraint{Field: wire.FieldIPProto, Value: uint64(wire.IPProtoUDP), Mask: 0xFF},
					wire.FieldConstraint{Field: wire.FieldL4Dst, Value: 443, Mask: 0xFFFF},
				)
				check := func(d *deploy.Deployment) (bool, error) {
					resp, err := agent.Query(wire.QueryNeutrality, constraints, "")
					if err != nil {
						return false, err
					}
					return resp.Status == wire.StatusViolation, nil
				}
				// Baselines observe the throttled class, but a single probe
				// packet passes the meter's burst allowance — path-based
				// observation is structurally blind to rate starvation.
				env := newEnv(d, src, victim, lying)
				env.L4Dst = 443
				return d, env, atk, check, nil
			},
		},
		{
			name: "flap-attack",
			build: func() (*deploy.Deployment, *baseline.Env, controlplane.Attack, rvaasCheck, error) {
				topo, err := topology.Linear(3, nil)
				if err != nil {
					return nil, nil, nil, nil, err
				}
				d, err := deploy.New(topo, deploy.Options{})
				if err != nil {
					return nil, nil, nil, nil, err
				}
				aps := topo.AccessPoints()
				src, victim := aps[0], aps[2]
				atk := &controlplane.FlapAttack{
					Inner: &controlplane.NeutralityViolation{VictimIP: victim.HostIP, L4Dst: 443},
				}
				check := func(d *deploy.Deployment) (bool, error) {
					for _, c := range d.RVaaS.FlapEvidence() {
						if c.Entry.Cookie&controlplane.CookieAttack == controlplane.CookieAttack {
							return true, nil
						}
					}
					return false, nil
				}
				return d, newEnv(d, src, victim, lying), atk, check, nil
			},
			// The flap attack installs and removes its rules between two
			// RVaaS polls; by the time any detector looks, the data plane
			// is clean again.
			execute: func(d *deploy.Deployment, atk controlplane.Attack) error {
				if err := d.RVaaS.PollAll(2 * time.Second); err != nil {
					return err
				}
				if err := atk.Launch(d.Provider); err != nil {
					return err
				}
				if err := d.RVaaS.PollAll(2 * time.Second); err != nil {
					return err
				}
				if err := atk.Revert(d.Provider); err != nil {
					return err
				}
				return d.RVaaS.PollAll(2 * time.Second)
			},
		},
	}
}

func freeEdgePort(topo *topology.Topology, sw topology.SwitchID) (topology.Endpoint, error) {
	for p := topology.PortNo(1); p <= topo.PortCount(sw); p++ {
		ep := topology.Endpoint{Switch: sw, Port: p}
		if topo.IsInternal(ep) {
			continue
		}
		if _, used := topo.AccessPointAt(ep); used {
			continue
		}
		return ep, nil
	}
	return topology.Endpoint{}, fmt.Errorf("experiments: no free port on switch %d", sw)
}

// DetectionMatrix runs every attack against RVaaS and both baselines and
// returns the full matrix. lying selects whether the compromised control
// plane falsifies its reports to the baselines (the paper's threat model;
// pass false for the honest-provider ablation).
func DetectionMatrix(lying bool) []DetectionResult {
	var out []DetectionResult
	for _, sc := range scenarios(lying) {
		out = append(out, runScenario(sc, lying)...)
	}
	return out
}

func runScenario(sc scenario, lying bool) []DetectionResult {
	fail := func(err error) []DetectionResult {
		return []DetectionResult{{Attack: sc.name, Detector: "setup", Err: err}}
	}
	d, env, atk, check, err := sc.build()
	if err != nil {
		return fail(err)
	}
	defer d.Close()

	detectors := []baseline.Detector{&baseline.Traceroute{}, &baseline.TrajectorySampling{}}
	for _, det := range detectors {
		if err := det.Baseline(env); err != nil {
			return fail(err)
		}
	}
	execute := sc.execute
	if execute == nil {
		execute = defaultExecute
	}
	if err := execute(d, atk); err != nil {
		return fail(err)
	}

	var out []DetectionResult
	detected, err := check(d)
	out = append(out, DetectionResult{Attack: sc.name, Detector: "rvaas", Detected: detected, Err: err})
	for _, det := range detectors {
		got, err := det.Detect(env)
		out = append(out, DetectionResult{Attack: sc.name, Detector: det.Name(), Detected: got, Err: err})
	}
	return out
}

// FormatMatrix renders the matrix as the table the harness prints.
func FormatMatrix(results []DetectionResult) string {
	detectors := []string{"rvaas", "traceroute", "trajectory-sampling"}
	cells := make(map[string]map[string]string)
	var attacks []string
	for _, r := range results {
		if cells[r.Attack] == nil {
			cells[r.Attack] = make(map[string]string)
			attacks = append(attacks, r.Attack)
		}
		v := "miss"
		if r.Err != nil {
			v = "err"
		} else if r.Detected {
			v = "DETECT"
		}
		cells[r.Attack][r.Detector] = v
	}
	out := fmt.Sprintf("%-22s %-8s %-12s %-20s\n", "attack", "rvaas", "traceroute", "traj-sampling")
	for _, a := range attacks {
		out += fmt.Sprintf("%-22s %-8s %-12s %-20s\n", a,
			cells[a][detectors[0]], cells[a][detectors[1]], cells[a][detectors[2]])
	}
	return out
}
