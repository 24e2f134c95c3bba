package labspec

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func mustParseFile(t *testing.T, name string) *Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(data)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return s
}

func TestParseLinear40YAML(t *testing.T) {
	s := mustParseFile(t, "linear40.yml")
	if s.Name != "linear-40-lab" {
		t.Errorf("name = %q", s.Name)
	}
	if s.Topology.Generator != "linear" || s.Topology.Size != 40 {
		t.Errorf("topology = %+v", s.Topology)
	}
	if s.RVaaS.PollInterval.Std() != 50*time.Millisecond {
		t.Errorf("pollInterval = %v", s.RVaaS.PollInterval.Std())
	}
	if s.RVaaS.RecheckParallelism != 4 {
		t.Errorf("recheckParallelism = %d", s.RVaaS.RecheckParallelism)
	}
	if s.Transport.Kind != TransportUDP {
		t.Errorf("transport = %+v", s.Transport)
	}
	if len(s.Invariants) != 3 {
		t.Fatalf("invariants = %d, want 3", len(s.Invariants))
	}
	inv := s.Invariants[0]
	if inv.Client != 1 || inv.Kind != "reachable-destinations" {
		t.Errorf("invariants[0] = %+v", inv)
	}
	cs, err := inv.WireConstraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0].Field != wire.FieldIPDst || cs[0].Value != 0x0A000201 || cs[0].Mask != 0xFFFFFFFF {
		t.Errorf("constraints = %+v", cs)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestParseExplicitJSON(t *testing.T) {
	s := mustParseFile(t, "explicit.json")
	if err := s.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	topo, err := s.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Switches()); got != 3 {
		t.Errorf("switches = %d", got)
	}
	if got := len(topo.Links()); got != 3 {
		t.Errorf("links = %d", got)
	}
	aps := topo.AccessPoints()
	if len(aps) != 3 {
		t.Fatalf("access points = %d", len(aps))
	}
	for _, ap := range aps {
		if ap.HostMAC == 0 || ap.HostIP == 0 {
			t.Errorf("access point %v missing derived host addressing", ap.Endpoint)
		}
	}
	if got := topo.RegionOf(3); got != "eu" {
		t.Errorf("region of s3 = %q", got)
	}
	if s.RVaaS.PersistPath != "state.json" {
		t.Errorf("persistPath = %q", s.RVaaS.PersistPath)
	}
}

// TestGoldenRoundTrip locks the YAML->Spec->JSON pipeline: the parsed YAML
// spec must marshal to the checked-in golden JSON, and re-parsing that JSON
// must yield the identical spec.
func TestGoldenRoundTrip(t *testing.T) {
	for _, name := range []string{"linear40.yml", "explicit.json", "placed.yml"} {
		t.Run(name, func(t *testing.T) {
			s := mustParseFile(t, name)
			got, err := json.MarshalIndent(s, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", strings.TrimSuffix(name, filepath.Ext(name))+".golden.json")
			if *updateGolden {
				if err := os.WriteFile(goldenPath, append(got, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if string(got)+"\n" != string(want) {
				t.Errorf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
			}

			// JSON re-parse must round-trip to the same spec.
			back, err := Parse(got)
			if err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			if !reflect.DeepEqual(s, back) {
				t.Errorf("round-trip mismatch:\n  first  = %+v\n  second = %+v", s, back)
			}
		})
	}
}

func TestParsePlacedV2(t *testing.T) {
	s := mustParseFile(t, "placed.yml")
	if err := s.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if s.Placement == nil || len(s.Placement.Groups) != 2 {
		t.Fatalf("placement = %+v", s.Placement)
	}
	if s.Placement.JoinTimeout.Std() != 20*time.Second {
		t.Errorf("joinTimeout = %v", s.Placement.JoinTimeout.Std())
	}
	placed := s.Placement.PlacedSwitches()
	if len(placed) != 6 {
		t.Errorf("placed switches = %v, want 6 entries", placed)
	}
	if placed[2] != "sw-left" || placed[5] != "sw-right" {
		t.Errorf("ownership wrong: %v", placed)
	}
	for _, g := range s.Placement.Groups {
		if g.Proc != ProcLocalExec {
			t.Errorf("group %+v: want every group %s", g, ProcLocalExec)
		}
	}
	if len(s.Placement.Groups) != 2 {
		t.Errorf("groups = %d, want 2", len(s.Placement.Groups))
	}
}

// TestParseFaultsV2 parses a spec with trunk liveness tuning, a rejoin
// policy and a faults section, validates it, resolves the effective beat
// thresholds and round-trips it through canonical JSON.
func TestParseFaultsV2(t *testing.T) {
	doc := `name: faulted
topology:
  generator: linear
  size: 4
placement:
  beatInterval: 50ms
  beatMissTimeout: 400ms
  rejoin:
    maxAttempts: 12
    backoff: 80ms
    maxBackoff: 1s
  groups:
    - name: left
      proc: inproc
      switches: [1, 2]
    - name: right
      proc: local-exec
      switches: [3, 4]
faults:
  seed: 42
  profiles:
    - name: lossy
      drop: 0.05
      latency: 2ms
      jitter: 1ms
  windows:
    - at: 1s
      duration: 2s
      target: trunk
      kind: partition
      group: right
    - at: 500ms
      target: channel
      profile: lossy
      switch: 3
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if got := s.Placement.EffectiveBeatInterval(); got != 50*time.Millisecond {
		t.Errorf("EffectiveBeatInterval = %s, want 50ms", got)
	}
	if got := s.Placement.EffectiveBeatMissTimeout(); got != 400*time.Millisecond {
		t.Errorf("EffectiveBeatMissTimeout = %s, want 400ms", got)
	}
	if s.Faults == nil || s.Faults.Seed != 42 || len(s.Faults.Profiles) != 1 || len(s.Faults.Windows) != 2 {
		t.Fatalf("faults = %+v", s.Faults)
	}
	if w := s.Faults.Windows[0]; w.Kind != FaultKindPartition || w.Duration.Std() != 2*time.Second {
		t.Errorf("window 0 = %+v", w)
	}
	roundTrip(t, s)
}

// TestEffectiveBeatDefaults: an untuned placement resolves to the wire
// defaults (and the helpers are nil-safe).
func TestEffectiveBeatDefaults(t *testing.T) {
	var p *PlacementSpec
	if got := p.EffectiveBeatInterval(); got != DefaultBeatInterval {
		t.Errorf("nil EffectiveBeatInterval = %s, want %s", got, DefaultBeatInterval)
	}
	if got := p.EffectiveBeatMissTimeout(); got != DefaultBeatMissFactor*DefaultBeatInterval {
		t.Errorf("nil EffectiveBeatMissTimeout = %s", got)
	}
	p = &PlacementSpec{}
	if got := p.EffectiveBeatMissTimeout(); got != DefaultBeatMissFactor*DefaultBeatInterval {
		t.Errorf("zero EffectiveBeatMissTimeout = %s", got)
	}
}

func TestValidateErrors(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name:     "t",
			Topology: TopologySpec{Generator: "linear", Size: 3},
		}
	}
	explicitBase := func() *Spec {
		return &Spec{
			Name: "t",
			Topology: TopologySpec{
				Switches: []SwitchSpec{{ID: 1, Ports: 2}, {ID: 2, Ports: 2}},
				Links:    []LinkSpec{{A: EndpointSpec{1, 1}, B: EndpointSpec{2, 1}}},
				AccessPoints: []AccessPointSpec{
					{Switch: 1, Port: 2, Client: 7},
				},
			},
		}
	}
	placedBase := func() *Spec {
		return &Spec{
			Name:     "t",
			Topology: TopologySpec{Generator: "linear", Size: 4},
			Placement: &PlacementSpec{
				Groups: []PlacementGroup{
					{Name: "left", Proc: ProcLocalExec, Switches: []uint32{1, 2}},
					{Name: "right", Proc: ProcLocalExec, Switches: []uint32{3, 4}},
				},
			},
		}
	}
	faultedBase := func() *Spec {
		s := placedBase()
		s.Faults = &FaultsSpec{
			Profiles: []FaultProfileSpec{{Name: "lossy", Drop: 0.05}},
			Windows: []FaultWindowSpec{
				{Target: FaultTargetTrunk, Kind: FaultKindPartition, Group: "right", At: Duration(time.Second), Duration: Duration(time.Second)},
			},
		}
		return s
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		spec    func() *Spec
		wantSub string
	}{
		{
			name:    "placement without groups",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.Groups = nil },
			wantSub: "groups: at least one group",
		},
		{
			name:    "placement group without name",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.Groups[0].Name = "" },
			wantSub: "name: required",
		},
		{
			name:    "placement duplicate group name",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.Groups[1].Name = "left" },
			wantSub: "duplicate group name",
		},
		{
			name:    "placement bad proc",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.Groups[0].Proc = "remote" },
			wantSub: "proc: unknown kind \"remote\"",
		},
		{
			name:    "placement empty group",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.Groups[0].Switches = nil },
			wantSub: "empty group",
		},
		{
			name:    "placement mixed group",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.Groups[0].Agents = []uint64{1} },
			wantSub: "not both",
		},
		{
			name:    "placement unknown switch",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.Groups[1].Switches = []uint32{3, 9} },
			wantSub: "switch 9 is not in the topology",
		},
		{
			name:    "placement switch placed twice",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.Groups[1].Switches = []uint32{2, 3} },
			wantSub: "switch 2 already placed by group \"left\"",
		},
		{
			name: "placement unknown agent client",
			spec: placedBase,
			mutate: func(s *Spec) {
				s.Placement.Groups[1] = PlacementGroup{Name: "ag", Proc: ProcLocalExec, Agents: []uint64{99}}
			},
			wantSub: "client 99 has no access point",
		},
		{
			name: "placement agent with agents skipped",
			spec: placedBase,
			mutate: func(s *Spec) {
				s.Agents.Skip = true
				s.Placement.Groups[1] = PlacementGroup{Name: "ag", Proc: ProcLocalExec, Agents: []uint64{1}}
			},
			wantSub: "agents.skip is true",
		},
		{
			name:    "placement external without token",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.Groups[0].Proc = ProcExternal; s.Placement.RendezvousDir = "/tmp/x" },
			wantSub: "token: required for external groups",
		},
		{
			name: "placement external without rendezvous dir",
			spec: placedBase,
			mutate: func(s *Spec) {
				s.Placement.Groups[0].Proc = ProcExternal
				s.Placement.Groups[0].Token = "secret"
			},
			wantSub: "rendezvousDir: required",
		},
		{
			name:    "placement negative join timeout",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.JoinTimeout = Duration(-time.Second) },
			wantSub: "joinTimeout: must be >= 0",
		},
		{
			name:    "missing name",
			spec:    base,
			mutate:  func(s *Spec) { s.Name = " " },
			wantSub: "name: required",
		},
		{
			name:    "no topology",
			spec:    base,
			mutate:  func(s *Spec) { s.Topology = TopologySpec{} },
			wantSub: "either generator or an explicit",
		},
		{
			name:    "unknown generator",
			spec:    base,
			mutate:  func(s *Spec) { s.Topology.Generator = "torus" },
			wantSub: "unknown generator \"torus\"",
		},
		{
			name:    "generator and explicit both",
			spec:    base,
			mutate:  func(s *Spec) { s.Topology.Switches = []SwitchSpec{{ID: 1, Ports: 1}} },
			wantSub: "mutually exclusive",
		},
		{
			name:    "linear without size",
			spec:    base,
			mutate:  func(s *Spec) { s.Topology.Size = 0 },
			wantSub: "size: required",
		},
		{
			name:    "bad routing",
			spec:    base,
			mutate:  func(s *Spec) { s.Routing = "ecmp" },
			wantSub: "routing: unknown mode",
		},
		{
			name:    "retired routing none",
			spec:    base,
			mutate:  func(s *Spec) { s.Routing = "none" },
			wantSub: `routing: unknown mode "none"`,
		},
		{
			name:    "negative poll",
			spec:    base,
			mutate:  func(s *Spec) { s.RVaaS.PollInterval = Duration(-time.Second) },
			wantSub: "pollInterval: must be >= 0",
		},
		{
			name:    "negative parallelism",
			spec:    base,
			mutate:  func(s *Spec) { s.RVaaS.RecheckParallelism = -1 },
			wantSub: "recheckParallelism: must be >= 0",
		},
		{
			name:    "bad transport",
			spec:    base,
			mutate:  func(s *Spec) { s.Transport.Kind = "tcp" },
			wantSub: "transport.kind: unknown kind \"tcp\"",
		},
		{
			name: "invariant for unplaced client",
			spec: base,
			mutate: func(s *Spec) {
				s.Invariants = []InvariantSpec{{Client: 99, Kind: "isolation"}}
			},
			wantSub: "client 99 has no access point",
		},
		{
			name: "invariant with unknown kind",
			spec: base,
			mutate: func(s *Spec) {
				s.Invariants = []InvariantSpec{{Client: 1, Kind: "liveness"}}
			},
			wantSub: "unknown invariant kind \"liveness\"",
		},
		{
			name: "invariant with unknown field",
			spec: base,
			mutate: func(s *Spec) {
				s.Invariants = []InvariantSpec{{
					Client: 1, Kind: "isolation",
					Constraints: []ConstraintSpec{{Field: "ipv6_dst", Value: 1}},
				}}
			},
			wantSub: "unknown field \"ipv6_dst\"",
		},
		{
			name: "invariants with agents skipped",
			spec: base,
			mutate: func(s *Spec) {
				s.Agents.Skip = true
				s.Invariants = []InvariantSpec{{Client: 1, Kind: "isolation"}}
			},
			wantSub: "agents.skip is true",
		},
		{
			name:    "dangling link",
			spec:    explicitBase,
			mutate:  func(s *Spec) { s.Topology.Links[0].B.Switch = 9 },
			wantSub: "undeclared switch 9",
		},
		{
			name:    "port out of range",
			spec:    explicitBase,
			mutate:  func(s *Spec) { s.Topology.Links[0].B.Port = 5 },
			wantSub: "port 5 out of range",
		},
		{
			name:    "duplicate switch",
			spec:    explicitBase,
			mutate:  func(s *Spec) { s.Topology.Switches = append(s.Topology.Switches, SwitchSpec{ID: 1, Ports: 4}) },
			wantSub: "switch 1 declared twice",
		},
		{
			name: "duplicate agent placement",
			spec: explicitBase,
			mutate: func(s *Spec) {
				s.Topology.AccessPoints = append(s.Topology.AccessPoints, AccessPointSpec{Switch: 1, Port: 2, Client: 8})
			},
			wantSub: "duplicate placement",
		},
		{
			name: "access point on wired port",
			spec: explicitBase,
			mutate: func(s *Spec) {
				s.Topology.AccessPoints[0] = AccessPointSpec{Switch: 1, Port: 1, Client: 7}
			},
			wantSub: "already used by links[0]",
		},
		{
			name:    "access point without client",
			spec:    explicitBase,
			mutate:  func(s *Spec) { s.Topology.AccessPoints[0].Client = 0 },
			wantSub: "client: required",
		},
		{
			name:    "ring too small",
			spec:    base,
			mutate:  func(s *Spec) { s.Topology.Generator = "ring"; s.Topology.Size = 2 },
			wantSub: "ring: size: needs >= 3",
		},
		{
			name:    "fattree odd arity",
			spec:    base,
			mutate:  func(s *Spec) { s.Topology.Generator = "fattree"; s.Topology.K = 3 },
			wantSub: "fattree: k: needs an even arity",
		},
		{
			name:    "wan too few regions",
			spec:    base,
			mutate:  func(s *Spec) { s.Topology.Generator = "wan"; s.Topology.Regions = []string{"us"} },
			wantSub: "wan: regions: needs >= 2",
		},
		{
			name:    "random bad prob",
			spec:    base,
			mutate:  func(s *Spec) { s.Topology.Generator = "random"; s.Topology.Prob = 1.5 },
			wantSub: "prob: must be in [0, 1]",
		},
		{
			name:    "beat interval negative",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.BeatInterval = Duration(-time.Millisecond) },
			wantSub: "beatInterval: must be >= 0",
		},
		{
			name:    "beat miss at one beat",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.BeatMissTimeout = Duration(DefaultBeatInterval) },
			wantSub: "must exceed the beat interval",
		},
		{
			name: "beat miss under custom interval",
			spec: placedBase,
			mutate: func(s *Spec) {
				s.Placement.BeatInterval = Duration(time.Second)
				s.Placement.BeatMissTimeout = Duration(500 * time.Millisecond)
			},
			wantSub: "must exceed the beat interval",
		},
		{
			name:    "rejoin negative attempts",
			spec:    placedBase,
			mutate:  func(s *Spec) { s.Placement.Rejoin = &RejoinSpec{MaxAttempts: -1} },
			wantSub: "rejoin.maxAttempts: must be >= 0",
		},
		{
			name: "rejoin cap below initial",
			spec: placedBase,
			mutate: func(s *Spec) {
				s.Placement.Rejoin = &RejoinSpec{Backoff: Duration(time.Second), MaxBackoff: Duration(100 * time.Millisecond)}
			},
			wantSub: "rejoin.maxBackoff",
		},
		{
			name: "faults without placement",
			spec: placedBase,
			mutate: func(s *Spec) {
				s.Placement = nil
				s.Faults = &FaultsSpec{}
			},
			wantSub: "faults: requires a placement section",
		},
		{
			name:    "fault profile bad prob",
			spec:    faultedBase,
			mutate:  func(s *Spec) { s.Faults.Profiles[0].Drop = 1.5 },
			wantSub: "probability must be in [0, 1]",
		},
		{
			name:    "fault profile unnamed",
			spec:    faultedBase,
			mutate:  func(s *Spec) { s.Faults.Profiles[0].Name = "" },
			wantSub: "name: required",
		},
		{
			name: "fault profile duplicate",
			spec: faultedBase,
			mutate: func(s *Spec) {
				s.Faults.Profiles = append(s.Faults.Profiles, FaultProfileSpec{Name: "lossy"})
			},
			wantSub: "duplicate profile name",
		},
		{
			name:    "fault profile negative latency",
			spec:    faultedBase,
			mutate:  func(s *Spec) { s.Faults.Profiles[0].Latency = Duration(-time.Millisecond) },
			wantSub: "latency/jitter: must be >= 0",
		},
		{
			name:    "fault window bad target",
			spec:    faultedBase,
			mutate:  func(s *Spec) { s.Faults.Windows[0].Target = "cable" },
			wantSub: "target: want trunk, channel or proc",
		},
		{
			name:    "fault window bad trunk kind",
			spec:    faultedBase,
			mutate:  func(s *Spec) { s.Faults.Windows[0].Kind = "meltdown" },
			wantSub: "kind: trunk windows want",
		},
		{
			name:    "fault window unplaced group",
			spec:    faultedBase,
			mutate:  func(s *Spec) { s.Faults.Windows[0].Group = "middle" },
			wantSub: "not a placed (non-inproc) placement group",
		},
		{
			name: "fault window inproc group",
			spec: faultedBase,
			mutate: func(s *Spec) {
				s.Placement.Groups[1].Proc = ProcInProc
			},
			wantSub: "not a placed (non-inproc) placement group",
		},
		{
			name: "fault window channel kind",
			spec: faultedBase,
			mutate: func(s *Spec) {
				s.Faults.Windows[0] = FaultWindowSpec{Target: FaultTargetChannel, Profile: "lossy", Kind: FaultKindStall}
			},
			wantSub: "channel windows use a profile, not a kind",
		},
		{
			name: "fault window unknown profile",
			spec: faultedBase,
			mutate: func(s *Spec) {
				s.Faults.Windows[0] = FaultWindowSpec{Target: FaultTargetChannel, Profile: "ghost"}
			},
			wantSub: "not a declared fault profile",
		},
		{
			name: "fault window unknown switch",
			spec: faultedBase,
			mutate: func(s *Spec) {
				s.Faults.Windows[0] = FaultWindowSpec{Target: FaultTargetChannel, Profile: "lossy", Switch: 99}
			},
			wantSub: "switch: 99 is not in the topology",
		},
		{
			name: "fault window proc kind",
			spec: faultedBase,
			mutate: func(s *Spec) {
				s.Faults.Windows[0] = FaultWindowSpec{Target: FaultTargetProc, Kind: FaultKindStall, Group: "right"}
			},
			wantSub: "kind: proc windows want kill",
		},
		{
			name:    "fault window negative offset",
			spec:    faultedBase,
			mutate:  func(s *Spec) { s.Faults.Windows[0].At = Duration(-time.Second) },
			wantSub: "at/duration: must be >= 0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.spec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Validate() = %q, want substring %q", err, tc.wantSub)
			}
		})
	}
	// agents.protocol is retired: agents speak the one envelope protocol.
	t.Run("bad protocol", func(t *testing.T) { rejectsRetired(t, "agents:\n  protocol: 3\n", "protocol") })
	t.Run("removed protocol v1", func(t *testing.T) { rejectsRetired(t, "agents:\n  protocol: 1\n", "protocol") })
}

func TestParseRejectsUnknownKeys(t *testing.T) {
	_, err := Parse([]byte("name: x\ntopology:\n  generater: linear\n  size: 3\n"))
	if err == nil || !strings.Contains(err.Error(), "generater") {
		t.Fatalf("err = %v, want unknown-field error naming the typo", err)
	}
}

func TestParseYAMLErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantSub string
	}{
		{"tab indent", "name: x\n\ttopology: y\n", "tab in indentation"},
		{"bad nesting", "name: x\ntopology:\n    generator: linear\n  size: 3\n", "unexpected indent"},
		{"scalar where mapping expected", "name: x\ntopology:\n  just-a-scalar\n", "expected \"key: value\""},
		{"duplicate key", "name: x\nname: y\n", "duplicate key"},
		{"empty", "   \n\n", "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Parse(%q) err = %v, want substring %q", tc.doc, err, tc.wantSub)
			}
		})
	}
}

func TestYAMLScalars(t *testing.T) {
	doc := `
name: "quoted name"
topology:
  generator: wan
  regions: [us-east, eu, 'ap south']
  perRegion: 2
rvaas:
  pollInterval: 1s
  seed: 0x10
agents:
  skip: true
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "quoted name" {
		t.Errorf("name = %q", s.Name)
	}
	if want := []string{"us-east", "eu", "ap south"}; !reflect.DeepEqual(s.Topology.Regions, want) {
		t.Errorf("regions = %v", s.Topology.Regions)
	}
	if s.RVaaS.Seed != 0x10 {
		t.Errorf("seed = %d", s.RVaaS.Seed)
	}
	if s.RVaaS.PollInterval.Std() != time.Second {
		t.Errorf("poll = %v", s.RVaaS.PollInterval.Std())
	}
	if !s.Agents.Skip {
		t.Error("boolean skip not parsed")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestBuildLinear40(t *testing.T) {
	s := mustParseFile(t, "linear40.yml")
	topo, err := s.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Switches()); got != 40 {
		t.Errorf("switches = %d, want 40", got)
	}
	if got := len(topo.AccessPoints()); got != 40 {
		t.Errorf("access points = %d, want 40", got)
	}
}

// rejectsRetired asserts that Parse refuses a linear lab carrying doc and
// names key as an unknown field: a retired key fails loudly instead of
// being dropped.
func rejectsRetired(t *testing.T, doc, key string) {
	t.Helper()
	_, err := Parse([]byte("name: t\ntopology:\n  generator: linear\n  size: 3\n" + doc))
	if want := fmt.Sprintf("unknown field %q", key); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Parse = %v, want %s", err, want)
	}
}

// TestParseRejectsVerifiersSection: the verifiers section went with the
// fleet it sized. A spec that still carries one, even one naming the single
// engine, is rejected.
func TestParseRejectsVerifiersSection(t *testing.T) {
	rejectsRetired(t, "verifiers:\n  count: 1\n  placement: footprint\n", "verifiers")
}

// TestParseRejectsRetiredKeys: every value a retired key once took is now
// an unknown field: the verifiers section, the engine term caps, the schema
// version, and the knobs only one value ever reached.
func TestParseRejectsRetiredKeys(t *testing.T) {
	cases := []struct{ name, doc, key string }{
		{"negative count", "verifiers:\n  count: -1\n", "verifiers"},
		{"removed fleet count", "verifiers:\n  count: 4\n", "verifiers"},
		{"unknown placement", "verifiers:\n  placement: round-robin\n", "verifiers"},
		{"removed rendezvous placement", "verifiers:\n  placement: rendezvous\n", "verifiers"},
		{"removed footprint cap", "rvaas:\n  footprintTermCap: 16\n", "footprintTermCap"},
		{"removed delta cap", "rvaas:\n  deltaTermCap: 24\n", "deltaTermCap"},
		{"negative footprint cap", "rvaas:\n  footprintTermCap: -1\n", "footprintTermCap"},
		{"negative delta cap", "rvaas:\n  deltaTermCap: -2\n", "deltaTermCap"},
		{"unknown schema version", "schemaVersion: 3\n", "schemaVersion"},
		{"schema v1", "schemaVersion: 1\n", "schemaVersion"},
		{"schema v2", "schemaVersion: 2\n", "schemaVersion"},
		{"periodic polls", "rvaas:\n  randomizePolls: false\n", "randomizePolls"},
		{"random polls", "rvaas:\n  randomizePolls: true\n", "randomizePolls"},
		{"auth timeout", "rvaas:\n  authTimeout: 250ms\n", "authTimeout"},
		{"history depth", "rvaas:\n  historyDepth: 256\n", "historyDepth"},
		{"bring-up workers", "transport:\n  maxWorkers: 8\n", "maxWorkers"},
		{"link latency", "  links:\n    - a:\n        switch: 1\n        port: 3\n      latencyMicros: 20\n", "latencyMicros"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { rejectsRetired(t, tc.doc, tc.key) })
	}
}

// roundTrip requires the spec's canonical JSON to parse back to the
// identical spec.
func roundTrip(t *testing.T, s *Spec) {
	t.Helper()
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(b)
	if err != nil {
		t.Fatalf("re-parse canonical json: %v\n%s", err, b)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round-trip mismatch:\n%s", b)
	}
}

func TestParseCampaignSection(t *testing.T) {
	doc := `name: adversarial
topology:
  generator: linear
  size: 5
campaign:
  seed: 7
  steps: 24
  subscribers: 8
  lieStep: 12
  settleTimeout: 3s
  weights:
    churn: 10
    poll: 4
`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	c := s.Campaign
	if c == nil || c.Seed != 7 || c.Steps != 24 || c.Subscribers != 8 ||
		c.LieStep != 12 ||
		c.SettleTimeout.Std() != 3*time.Second || c.Weights["churn"] != 10 {
		t.Fatalf("campaign = %+v", c)
	}
	roundTrip(t, s)
}

func TestValidateCampaignErrors(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name:     "c",
			Topology: TopologySpec{Generator: "linear", Size: 5},
			Campaign: &CampaignSpec{Steps: 10},
		}
	}
	cases := []struct {
		name    string
		mutate  func(s *Spec)
		wantSub string
	}{
		{
			name:    "wan topology",
			mutate:  func(s *Spec) { s.Topology = TopologySpec{Generator: "wan", Regions: []string{"a", "b"}, PerRegion: 2} },
			wantSub: `generator "wan" is not replayable`,
		},
		{
			name: "explicit topology",
			mutate: func(s *Spec) {
				s.Topology = TopologySpec{
					Switches:     []SwitchSpec{{ID: 1, Ports: 4}},
					AccessPoints: []AccessPointSpec{{Switch: 1, Port: 2, Client: 1}},
				}
			},
			wantSub: "campaign labs need a generator topology",
		},
		{
			name:    "unknown weight op",
			mutate:  func(s *Spec) { s.Campaign.Weights = map[string]int{"frobnicate": 3} },
			wantSub: `weights: unknown op "frobnicate"`,
		},
		{
			name:    "negative weight",
			mutate:  func(s *Spec) { s.Campaign.Weights = map[string]int{"churn": -1} },
			wantSub: "weights: churn: must be >= 0",
		},
		{
			name:    "lie past end",
			mutate:  func(s *Spec) { s.Campaign.LieStep = 11 },
			wantSub: "lieStep: 11 is past the last step (10)",
		},
		{
			name:    "negative steps",
			mutate:  func(s *Spec) { s.Campaign.Steps = -1 },
			wantSub: "steps: must be >= 0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
	// campaign.oracle is retired: the oracle always runs RevalidateAll.
	t.Run("unknown oracle", func(t *testing.T) { rejectsRetired(t, "campaign:\n  oracle: psychic\n", "oracle") })
}

func TestParseCampaignTestdata(t *testing.T) {
	s, err := Load("testdata/campaign.yml")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if s.Campaign == nil || s.Campaign.Seed != 1234 || len(s.Campaign.Weights) != 13 {
		t.Fatalf("campaign = %+v", s.Campaign)
	}
}

// TestBuildTopologyAllKinds builds one topology per generator the spec
// accepts and checks each is a valid, non-empty lab; an unknown generator
// is refused.
func TestBuildTopologyAllKinds(t *testing.T) {
	for _, ts := range []TopologySpec{
		{Generator: "linear", Size: 4},
		{Generator: "ring", Size: 4},
		{Generator: "star", Size: 3},
		{Generator: "grid", Rows: 3, Cols: 3},
		{Generator: "fattree", K: 4},
		{Generator: "wan", Regions: []string{"eu-west", "offshore", "us-east"}, PerRegion: 2},
		{Generator: "random", Size: 6, Prob: 0.2, Seed: 42},
	} {
		topo, err := ts.Build()
		if err != nil {
			t.Fatalf("%s: %v", ts.Generator, err)
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: %v", ts.Generator, err)
		}
		if len(topo.Switches()) == 0 || len(topo.AccessPoints()) == 0 {
			t.Errorf("%s: empty topology", ts.Generator)
		}
	}
	if _, err := (&TopologySpec{Generator: "nonsense", Size: 3}).Build(); err == nil {
		t.Error("unknown generator accepted")
	}
}
