// Package labspec defines the declarative lab specification the operator
// plane is driven by: a YAML or JSON document declaring the topology (a
// generator by name + parameters, or an explicit wiring plan), the routing
// mode, RVaaS tuning, agent placement, and the standing invariants to
// register at bring-up. deploy.FromSpec turns a validated spec into a running
// lab; `rvaasd deploy -topo lab.yml` is the CLI entry point.
package labspec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/topology"
	"repro/internal/wire"
)

// Duration is a time.Duration that (un)marshals as a human string ("50ms").
// Bare JSON numbers are read as nanoseconds.
type Duration time.Duration

// MarshalJSON renders the duration as its string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "50ms"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q (want e.g. \"50ms\", \"1s\"): %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// Spec is the root of a lab specification.
type Spec struct {
	// Name identifies the lab (required; used in logs and persistence).
	Name     string       `json:"name"`
	Topology TopologySpec `json:"topology"`
	// Routing selects the control-plane routing mode: "allpairs" (default)
	// or "tenant" (per-client VLAN isolation).
	Routing    string          `json:"routing,omitempty"`
	RVaaS      RVaaSSpec       `json:"rvaas,omitempty"`
	Transport  TransportSpec   `json:"transport,omitempty"`
	Agents     AgentsSpec      `json:"agents,omitempty"`
	Placement  *PlacementSpec  `json:"placement,omitempty"`
	Invariants []InvariantSpec `json:"invariants,omitempty"`
	// Faults declares the lab's fault plane: named channel perturbation
	// profiles and scheduled fault windows (placed labs only — the targets
	// are the trunk, the attach channels and the placed processes).
	Faults *FaultsSpec `json:"faults,omitempty"`
	// Campaign declares a seeded adversarial campaign over this spec's
	// topology (attacksim run -spec). Campaign labs are always fresh
	// single-process deployments, so the section composes with any spec but
	// ignores placement/agents/invariants.
	Campaign *CampaignSpec `json:"campaign,omitempty"`
}

// Placement process kinds.
const (
	// ProcInProc hosts the group inside the controller process (default).
	ProcInProc = "inproc"
	// ProcLocalExec spawns a switchd/agentd child process on this machine.
	ProcLocalExec = "local-exec"
	// ProcExternal expects an externally launched switchd/agentd to join via
	// the rendezvous manifest deploy writes.
	ProcExternal = "external"
)

// PlacementSpec splits a lab across processes: each group of switches
// and/or client agents is hosted either in the controller process, in a
// locally spawned child process, or in an externally launched one that
// joins through a rendezvous manifest.
type PlacementSpec struct {
	// Trunk is the controller's data-plane trunk listen address
	// ("127.0.0.1:0" when empty — an ephemeral loopback port).
	Trunk string `json:"trunk,omitempty"`
	// Attach is the controller's UDP secure-channel listen address placed
	// switches dial ("127.0.0.1:0" when empty).
	Attach string `json:"attach,omitempty"`
	// RendezvousDir is where deploy writes per-process manifests for
	// external groups (required when any group is external).
	RendezvousDir string `json:"rendezvousDir,omitempty"`
	// JoinTimeout bounds waiting for every placed group to join and its
	// switches to attach (0 = deploy default).
	JoinTimeout Duration `json:"joinTimeout,omitempty"`
	// BeatInterval is the placed processes' trunk liveness beat period
	// (0 = DefaultBeatInterval, 250ms).
	BeatInterval Duration `json:"beatInterval,omitempty"`
	// BeatMissTimeout is how long the controller tolerates beat silence
	// before it detaches a joined group — closing its trunk and marking
	// its switch sessions detached so invariants degrade instead of going
	// stale-green (0 = DefaultBeatMissFactor x the beat interval; must
	// exceed the beat interval when set).
	BeatMissTimeout Duration `json:"beatMissTimeout,omitempty"`
	// Rejoin tunes the children's trunk reconnect backoff.
	Rejoin *RejoinSpec      `json:"rejoin,omitempty"`
	Groups []PlacementGroup `json:"groups"`
}

// Trunk liveness defaults.
const (
	// DefaultBeatInterval is the trunk liveness beat period when the spec
	// does not choose one.
	DefaultBeatInterval = 250 * time.Millisecond
	// DefaultBeatMissFactor scales the beat interval into the default
	// beat-miss detach threshold.
	DefaultBeatMissFactor = 8
)

// EffectiveBeatInterval resolves the trunk beat period (nil-safe).
func (p *PlacementSpec) EffectiveBeatInterval() time.Duration {
	if p == nil || p.BeatInterval <= 0 {
		return DefaultBeatInterval
	}
	return p.BeatInterval.Std()
}

// EffectiveBeatMissTimeout resolves the controller-side beat-miss detach
// threshold (nil-safe).
func (p *PlacementSpec) EffectiveBeatMissTimeout() time.Duration {
	if p == nil || p.BeatMissTimeout <= 0 {
		return DefaultBeatMissFactor * p.EffectiveBeatInterval()
	}
	return p.BeatMissTimeout.Std()
}

// RejoinSpec tunes how a placed child reconnects its trunk after loss:
// jittered exponential backoff between attempts, bounded per outage.
type RejoinSpec struct {
	// MaxAttempts bounds consecutive failed rejoin attempts before the
	// child gives up (0 = procplane default; the counter resets on every
	// successful join).
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// Backoff is the initial retry delay (0 = procplane default).
	Backoff Duration `json:"backoff,omitempty"`
	// MaxBackoff caps the exponential growth (0 = procplane default).
	MaxBackoff Duration `json:"maxBackoff,omitempty"`
}

// PlacementGroup places one set of switches and/or client agents into a
// process.
type PlacementGroup struct {
	// Name identifies the group (process name, manifest file name).
	Name string `json:"name"`
	// Proc is "inproc", "local-exec" or "external".
	Proc string `json:"proc"`
	// Switches lists switch IDs hosted by this group's process (switchd).
	Switches []uint32 `json:"switches,omitempty"`
	// Agents lists client IDs whose agents this group's process hosts
	// (agentd).
	Agents []uint64 `json:"agents,omitempty"`
	// Token is the join token the process must present on the trunk before
	// the controller issues its channel certificates. Local-exec groups get
	// a generated token when empty; external groups must pin one.
	Token string `json:"token,omitempty"`
}

// TopologySpec declares the wiring plan: either a named generator with its
// parameters, or an explicit switch/link/access-point list. Exactly one of
// the two forms must be used.
type TopologySpec struct {
	// Generator names a built-in topology: linear, ring, star, grid,
	// fattree, wan, random.
	Generator string `json:"generator,omitempty"`
	// Size is the switch count for linear/ring/star/random.
	Size int `json:"size,omitempty"`
	// Rows/Cols size a grid.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// K is the fat-tree arity (even).
	K int `json:"k,omitempty"`
	// Regions + PerRegion size a multi-region WAN.
	Regions   []string `json:"regions,omitempty"`
	PerRegion int      `json:"perRegion,omitempty"`
	// Prob is the random-geometric edge probability (default 0.1).
	Prob float64 `json:"prob,omitempty"`
	// Seed seeds the random generator.
	Seed int64 `json:"seed,omitempty"`

	// Explicit wiring plan (mutually exclusive with Generator).
	Switches     []SwitchSpec      `json:"switches,omitempty"`
	Links        []LinkSpec        `json:"links,omitempty"`
	AccessPoints []AccessPointSpec `json:"accessPoints,omitempty"`
}

// SwitchSpec declares one switch of an explicit wiring plan.
type SwitchSpec struct {
	ID    uint32 `json:"id"`
	Ports uint32 `json:"ports"`
	// Region optionally places the switch geographically.
	Region string `json:"region,omitempty"`
}

// EndpointSpec is a (switch, port) pair.
type EndpointSpec struct {
	Switch uint32 `json:"switch"`
	Port   uint32 `json:"port"`
}

func (e EndpointSpec) String() string { return fmt.Sprintf("s%d:p%d", e.Switch, e.Port) }

// LinkSpec declares one cable of an explicit wiring plan.
type LinkSpec struct {
	A EndpointSpec `json:"a"`
	B EndpointSpec `json:"b"`
}

// AccessPointSpec attaches one client host at an edge port. Host MAC/IP are
// derived deterministically from the switch and per-switch host sequence.
type AccessPointSpec struct {
	Switch uint32 `json:"switch"`
	Port   uint32 `json:"port"`
	Client uint64 `json:"client"`
}

// RVaaSSpec tunes the verification controller.
type RVaaSSpec struct {
	// PollInterval is the mean period of the randomly timed flow-table polls
	// (0 = no background polls).
	PollInterval Duration `json:"pollInterval,omitempty"`
	// RecheckParallelism sizes the subscription recheck worker pool
	// (0 = GOMAXPROCS).
	RecheckParallelism int `json:"recheckParallelism,omitempty"`
	// PersistPath durably persists sessions + subscriptions for restart
	// recovery ("" = ephemeral).
	PersistPath string `json:"persistPath,omitempty"`
	// Seed seeds controller randomness (the random poll gaps).
	Seed int64 `json:"seed,omitempty"`
}

// Transport kinds.
const (
	TransportInProc = "inproc"
	TransportUDP    = "udp"
)

// TransportSpec selects how control channels are carried.
type TransportSpec struct {
	// Kind is "inproc" (in-memory pipes, default) or "udp" (real loopback
	// UDP sockets).
	Kind string `json:"kind,omitempty"`
}

// AgentsSpec controls client agent placement.
type AgentsSpec struct {
	// Skip disables agent creation (infrastructure-only lab).
	Skip bool `json:"skip,omitempty"`
	// ResponseTimeout bounds each agent request awaiting its in-band
	// response (0 = client default). Large labs with expensive invariant
	// kinds (isolation over many endpoints) need more headroom.
	ResponseTimeout Duration `json:"responseTimeout,omitempty"`
}

// InvariantSpec declares one standing invariant to register at bring-up via
// the named client's agent — over the real in-band path, not an in-process
// shortcut.
type InvariantSpec struct {
	// Client is the subscribing client ID (must have an access point).
	Client uint64 `json:"client"`
	// Kind is the query kind by wire name: reachable-destinations,
	// reaching-sources, isolation, geo-regions, path-length,
	// waypoint-avoidance, neutrality, transfer-function.
	Kind string `json:"kind"`
	// Param carries kind-specific data (max path length, region name, ...).
	Param string `json:"param,omitempty"`
	// Constraints scope the invariant's header space.
	Constraints []ConstraintSpec `json:"constraints,omitempty"`
}

// ConstraintSpec restricts one packet field.
type ConstraintSpec struct {
	// Field is the wire field name: eth_dst, eth_src, eth_type, vlan,
	// ip_src, ip_dst, ip_proto, l4_src, l4_dst.
	Field string `json:"field"`
	Value uint64 `json:"value"`
	// Mask selects the significant bits (0 = exact full-width match).
	Mask uint64 `json:"mask,omitempty"`
}

// Fault targets and kinds (mirrored by internal/faultinject, which owns
// the runtime semantics).
const (
	FaultTargetTrunk   = "trunk"
	FaultTargetChannel = "channel"
	FaultTargetProc    = "proc"

	FaultKindPartition   = "partition"
	FaultKindStall       = "stall"
	FaultKindReset       = "reset"
	FaultKindStarveBeats = "starve-beats"
	FaultKindKill        = "kill"
)

// FaultsSpec declares the lab's fault plane: a seed for deterministic
// perturbation streams, named channel profiles, and scheduled windows.
type FaultsSpec struct {
	// Seed seeds every fault decision stream; the same seed replays the
	// same drop/delay sequences (0 = seed 1).
	Seed int64 `json:"seed,omitempty"`
	// Profiles are named channel perturbations windows reference.
	Profiles []FaultProfileSpec `json:"profiles,omitempty"`
	// Windows are the scheduled faults; more can be injected at runtime
	// via `rvaasd ops faults inject`.
	Windows []FaultWindowSpec `json:"windows,omitempty"`
}

// FaultProfileSpec is one named channel perturbation.
type FaultProfileSpec struct {
	Name string `json:"name"`
	// Drop / Duplicate / Reorder are per-message probabilities in [0, 1].
	Drop      float64 `json:"drop,omitempty"`
	Duplicate float64 `json:"duplicate,omitempty"`
	Reorder   float64 `json:"reorder,omitempty"`
	// Latency delays each message; Jitter adds a uniform extra draw.
	Latency Duration `json:"latency,omitempty"`
	Jitter  Duration `json:"jitter,omitempty"`
}

// FaultWindowSpec schedules one fault. At is the offset from lab
// bring-up; a zero Duration keeps the window open until cleared.
type FaultWindowSpec struct {
	At       Duration `json:"at,omitempty"`
	Duration Duration `json:"duration,omitempty"`
	// Target is "trunk", "channel" or "proc".
	Target string `json:"target"`
	// Group selects the placement group (trunk and proc targets).
	Group string `json:"group,omitempty"`
	// Switch selects one switch's channel (0 = every placed switch).
	Switch uint32 `json:"switch,omitempty"`
	// Kind names the trunk fault (partition, stall, reset, starve-beats)
	// or the proc fault (kill).
	Kind string `json:"kind,omitempty"`
	// Profile names the channel perturbation profile (channel targets).
	Profile string `json:"profile,omitempty"`
}

func (f *FaultsSpec) validate(groups map[string]bool, switches map[uint32]bool) error {
	profiles := make(map[string]bool, len(f.Profiles))
	for i, p := range f.Profiles {
		where := fmt.Sprintf("profiles[%d] (%s)", i, p.Name)
		if strings.TrimSpace(p.Name) == "" {
			return fmt.Errorf("profiles[%d]: name: required", i)
		}
		if profiles[p.Name] {
			return fmt.Errorf("%s: duplicate profile name", where)
		}
		profiles[p.Name] = true
		for _, pr := range []struct {
			name string
			v    float64
		}{{"drop", p.Drop}, {"duplicate", p.Duplicate}, {"reorder", p.Reorder}} {
			if pr.v < 0 || pr.v > 1 {
				return fmt.Errorf("%s: %s: probability must be in [0, 1], got %g", where, pr.name, pr.v)
			}
		}
		if p.Latency < 0 || p.Jitter < 0 {
			return fmt.Errorf("%s: latency/jitter: must be >= 0", where)
		}
	}
	for i, w := range f.Windows {
		where := fmt.Sprintf("windows[%d]", i)
		if w.At < 0 || w.Duration < 0 {
			return fmt.Errorf("%s: at/duration: must be >= 0", where)
		}
		switch w.Target {
		case FaultTargetTrunk:
			switch w.Kind {
			case FaultKindPartition, FaultKindStall, FaultKindReset, FaultKindStarveBeats:
			default:
				return fmt.Errorf("%s: kind: trunk windows want %s, %s, %s or %s, got %q",
					where, FaultKindPartition, FaultKindStall, FaultKindReset, FaultKindStarveBeats, w.Kind)
			}
			if !groups[w.Group] {
				return fmt.Errorf("%s: group: %q is not a placed (non-inproc) placement group", where, w.Group)
			}
		case FaultTargetChannel:
			if w.Kind != "" {
				return fmt.Errorf("%s: kind: channel windows use a profile, not a kind", where)
			}
			if !profiles[w.Profile] {
				return fmt.Errorf("%s: profile: %q is not a declared fault profile", where, w.Profile)
			}
			if w.Switch != 0 && !switches[w.Switch] {
				return fmt.Errorf("%s: switch: %d is not in the topology", where, w.Switch)
			}
		case FaultTargetProc:
			if w.Kind != FaultKindKill {
				return fmt.Errorf("%s: kind: proc windows want %s, got %q", where, FaultKindKill, w.Kind)
			}
			if !groups[w.Group] {
				return fmt.Errorf("%s: group: %q is not a placed (non-inproc) placement group", where, w.Group)
			}
		default:
			return fmt.Errorf("%s: target: want %s, %s or %s, got %q",
				where, FaultTargetTrunk, FaultTargetChannel, FaultTargetProc, w.Target)
		}
	}
	return nil
}

// CampaignSpec declares a seeded adversarial campaign: a randomized
// attack/churn program executed against a fresh lab built from this spec's
// topology, differentially checked against a trusted oracle controller
// (internal/campaign; `attacksim run -spec` is the CLI entry point).
type CampaignSpec struct {
	// Seed drives action generation; the same (seed, steps, weights,
	// topology) replays the identical campaign.
	Seed int64 `json:"seed,omitempty"`
	// Steps is the campaign length in actions (0 = engine default).
	Steps int `json:"steps,omitempty"`
	// Subscribers is the number of standing invariants registered up front,
	// cycling reach/isolation/path-length/waypoint (0 = engine default).
	Subscribers int `json:"subscribers,omitempty"`
	// Weights overrides the action-grammar distribution, op name → weight
	// (see CampaignOps; omitted ops keep weight 0, nil = engine defaults).
	Weights map[string]int `json:"weights,omitempty"`
	// LieStep, when > 0, replaces that step's action with the Byzantine
	// verdict-stream lie the differential oracle must catch.
	LieStep int `json:"lieStep,omitempty"`
	// SettleTimeout bounds the engine's per-step quiescence barrier
	// (0 = engine default).
	SettleTimeout Duration `json:"settleTimeout,omitempty"`
}

// CampaignOps lists the action-grammar op names a campaign weights map may
// reference. Kept in lockstep with internal/campaign's grammar (which
// cannot be imported from here without a cycle through deploy); the
// campaign package's tests assert the two lists agree.
func CampaignOps() []string {
	return []string{
		"churn", "unchurn", "flap", "shadow", "restart", "detach",
		"reattach", "attack", "revert", "suppress", "poll", "sub",
		"unsub", "lie",
	}
}

// campaignGenerators are the topology generators a campaign lab supports
// (the reproducer format re-builds the lab from kind + size alone).
var campaignGenerators = map[string]bool{
	"linear": true, "ring": true, "star": true, "grid": true, "fattree": true,
}

func (c *CampaignSpec) validate(topo TopologySpec) error {
	if topo.Generator == "" {
		return fmt.Errorf("campaign labs need a generator topology, not an explicit wiring plan")
	}
	if !campaignGenerators[topo.Generator] {
		return fmt.Errorf("topology generator %q is not replayable in a campaign (want linear, ring, star, grid or fattree)", topo.Generator)
	}
	if c.Steps < 0 {
		return fmt.Errorf("steps: must be >= 0, got %d", c.Steps)
	}
	if c.Subscribers < 0 {
		return fmt.Errorf("subscribers: must be >= 0, got %d", c.Subscribers)
	}
	known := make(map[string]bool)
	for _, op := range CampaignOps() {
		known[op] = true
	}
	for op, w := range c.Weights {
		if !known[op] {
			return fmt.Errorf("weights: unknown op %q (want one of %s)", op, strings.Join(CampaignOps(), ", "))
		}
		if w < 0 {
			return fmt.Errorf("weights: %s: must be >= 0, got %d", op, w)
		}
	}
	if c.LieStep < 0 {
		return fmt.Errorf("lieStep: must be >= 0, got %d", c.LieStep)
	}
	if c.Steps > 0 && c.LieStep > c.Steps {
		return fmt.Errorf("lieStep: %d is past the last step (%d)", c.LieStep, c.Steps)
	}
	if c.SettleTimeout < 0 {
		return fmt.Errorf("settleTimeout: must be >= 0")
	}
	return nil
}

// Parse decodes a spec from JSON (first non-space byte '{') or the YAML
// subset. Unknown keys are rejected so typos surface as errors.
func Parse(data []byte) (*Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	jsonBytes := data
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("labspec: empty spec document")
	}
	if trimmed[0] != '{' {
		doc, err := decodeYAML(data)
		if err != nil {
			return nil, fmt.Errorf("labspec: %w", err)
		}
		jsonBytes, err = json.Marshal(doc)
		if err != nil {
			return nil, fmt.Errorf("labspec: %w", err)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(jsonBytes))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("labspec: %w", err)
	}
	return &s, nil
}

// Load reads and parses a spec file (YAML or JSON by content sniffing).
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("labspec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

var queryKinds = map[string]wire.QueryKind{
	"reachable-destinations": wire.QueryReachableDestinations,
	"reaching-sources":       wire.QueryReachingSources,
	"isolation":              wire.QueryIsolation,
	"geo-regions":            wire.QueryGeoRegions,
	"path-length":            wire.QueryPathLength,
	"waypoint-avoidance":     wire.QueryWaypointAvoidance,
	"neutrality":             wire.QueryNeutrality,
	"transfer-function":      wire.QueryTransferFunction,
}

// ParseQueryKind maps a spec kind name to the wire enum.
func ParseQueryKind(name string) (wire.QueryKind, error) {
	if k, ok := queryKinds[name]; ok {
		return k, nil
	}
	known := make([]string, 0, len(queryKinds))
	for n := range queryKinds {
		known = append(known, n)
	}
	return 0, fmt.Errorf("unknown invariant kind %q (known: %s)", name, strings.Join(sorted(known), ", "))
}

var fieldNames = func() map[string]wire.Field {
	m := make(map[string]wire.Field)
	for _, f := range wire.Fields() {
		m[wire.FieldName(f)] = f
	}
	return m
}()

// ParseField maps a spec field name to the wire enum.
func ParseField(name string) (wire.Field, error) {
	if f, ok := fieldNames[name]; ok {
		return f, nil
	}
	known := make([]string, 0, len(fieldNames))
	for n := range fieldNames {
		known = append(known, n)
	}
	return 0, fmt.Errorf("unknown field %q (known: %s)", name, strings.Join(sorted(known), ", "))
}

// WireConstraints converts an invariant's constraint specs to wire form. A
// zero mask means "exact full-width match".
func (inv *InvariantSpec) WireConstraints() ([]wire.FieldConstraint, error) {
	out := make([]wire.FieldConstraint, 0, len(inv.Constraints))
	for i, c := range inv.Constraints {
		f, err := ParseField(c.Field)
		if err != nil {
			return nil, fmt.Errorf("constraints[%d]: %w", i, err)
		}
		mask := c.Mask
		if mask == 0 {
			mask = ^uint64(0)
		}
		out = append(out, wire.FieldConstraint{Field: f, Value: c.Value, Mask: mask})
	}
	return out, nil
}

// WireKind converts the invariant's kind name to the wire enum.
func (inv *InvariantSpec) WireKind() (wire.QueryKind, error) {
	return ParseQueryKind(inv.Kind)
}

// generatorNames lists the built-in topology generators.
var generatorNames = []string{"linear", "ring", "star", "grid", "fattree", "wan", "random"}

// Validate checks the spec for structural and semantic problems, returning
// an actionable error naming the offending section.
func (s *Spec) Validate() error {
	if strings.TrimSpace(s.Name) == "" {
		return fmt.Errorf("labspec: name: required (identifies the lab in logs and persistence)")
	}
	if err := s.Topology.validate(); err != nil {
		return fmt.Errorf("labspec: topology: %w", err)
	}
	switch s.Routing {
	case "", "allpairs", "tenant":
	default:
		return fmt.Errorf("labspec: routing: unknown mode %q (want allpairs or tenant)", s.Routing)
	}
	if s.RVaaS.PollInterval < 0 {
		return fmt.Errorf("labspec: rvaas.pollInterval: must be >= 0, got %s", s.RVaaS.PollInterval.Std())
	}
	if s.RVaaS.RecheckParallelism < 0 {
		return fmt.Errorf("labspec: rvaas.recheckParallelism: must be >= 0 (0 = GOMAXPROCS), got %d", s.RVaaS.RecheckParallelism)
	}
	switch s.Transport.Kind {
	case "", TransportInProc, TransportUDP:
	default:
		return fmt.Errorf("labspec: transport.kind: unknown kind %q (want %s or %s)", s.Transport.Kind, TransportInProc, TransportUDP)
	}
	if s.Agents.ResponseTimeout < 0 {
		return fmt.Errorf("labspec: agents.responseTimeout: must be >= 0, got %s", s.Agents.ResponseTimeout.Std())
	}
	if s.Agents.Skip && len(s.Invariants) > 0 {
		return fmt.Errorf("labspec: invariants: %d invariants declared but agents.skip is true (invariants are registered via agents)", len(s.Invariants))
	}

	// Build the topology once to validate invariant placement against it.
	topo, err := s.Topology.Build()
	if err != nil {
		return fmt.Errorf("labspec: topology: %w", err)
	}
	clients := make(map[uint64]bool)
	for _, ap := range topo.AccessPoints() {
		clients[ap.ClientID] = true
	}
	for i, inv := range s.Invariants {
		if _, err := inv.WireKind(); err != nil {
			return fmt.Errorf("labspec: invariants[%d]: %w", i, err)
		}
		if _, err := inv.WireConstraints(); err != nil {
			return fmt.Errorf("labspec: invariants[%d]: %w", i, err)
		}
		if !clients[inv.Client] {
			return fmt.Errorf("labspec: invariants[%d]: client %d has no access point in the topology (declared clients: %v)", i, inv.Client, sortedClients(clients))
		}
	}
	switches := make(map[uint32]bool)
	for _, sw := range topo.Switches() {
		switches[uint32(sw)] = true
	}
	if s.Placement != nil {
		if err := s.Placement.validate(switches, clients, s.Agents.Skip); err != nil {
			return fmt.Errorf("labspec: placement: %w", err)
		}
	}
	if s.Faults != nil {
		if s.Placement == nil {
			return fmt.Errorf("labspec: faults: requires a placement section (the fault targets are the trunk, attach channels and placed processes)")
		}
		placedGroups := make(map[string]bool)
		for _, g := range s.Placement.Groups {
			if g.Proc != ProcInProc {
				placedGroups[g.Name] = true
			}
		}
		if err := s.Faults.validate(placedGroups, switches); err != nil {
			return fmt.Errorf("labspec: faults: %w", err)
		}
	}
	if s.Campaign != nil {
		if err := s.Campaign.validate(s.Topology); err != nil {
			return fmt.Errorf("labspec: campaign: %w", err)
		}
	}
	return nil
}

func (p *PlacementSpec) validate(switches map[uint32]bool, clients map[uint64]bool, agentsSkipped bool) error {
	if len(p.Groups) == 0 {
		return fmt.Errorf("groups: at least one group is required (or drop the placement section for a single-process lab)")
	}
	if p.JoinTimeout < 0 {
		return fmt.Errorf("joinTimeout: must be >= 0, got %s", p.JoinTimeout.Std())
	}
	if p.BeatInterval < 0 {
		return fmt.Errorf("beatInterval: must be >= 0 (0 = %s default), got %s", DefaultBeatInterval, p.BeatInterval.Std())
	}
	if p.BeatMissTimeout < 0 {
		return fmt.Errorf("beatMissTimeout: must be >= 0 (0 = %dx the beat interval), got %s", DefaultBeatMissFactor, p.BeatMissTimeout.Std())
	}
	if p.BeatMissTimeout > 0 && p.BeatMissTimeout.Std() <= p.EffectiveBeatInterval() {
		return fmt.Errorf("beatMissTimeout: %s must exceed the beat interval %s (a threshold at or under one beat detaches healthy groups)",
			p.BeatMissTimeout.Std(), p.EffectiveBeatInterval())
	}
	if r := p.Rejoin; r != nil {
		if r.MaxAttempts < 0 {
			return fmt.Errorf("rejoin.maxAttempts: must be >= 0 (0 = default), got %d", r.MaxAttempts)
		}
		if r.Backoff < 0 || r.MaxBackoff < 0 {
			return fmt.Errorf("rejoin: backoff/maxBackoff must be >= 0")
		}
		if r.Backoff > 0 && r.MaxBackoff > 0 && r.MaxBackoff < r.Backoff {
			return fmt.Errorf("rejoin.maxBackoff: %s is below the initial backoff %s", r.MaxBackoff.Std(), r.Backoff.Std())
		}
	}
	names := make(map[string]bool, len(p.Groups))
	swOwner := make(map[uint32]string)
	agOwner := make(map[uint64]string)
	anyExternal := false
	for i, g := range p.Groups {
		where := fmt.Sprintf("groups[%d] (%s)", i, g.Name)
		if strings.TrimSpace(g.Name) == "" {
			return fmt.Errorf("groups[%d]: name: required (process and manifest name)", i)
		}
		if names[g.Name] {
			return fmt.Errorf("%s: duplicate group name", where)
		}
		names[g.Name] = true
		switch g.Proc {
		case ProcInProc, ProcLocalExec, ProcExternal:
		case "":
			return fmt.Errorf("%s: proc: required (want %s, %s or %s)", where, ProcInProc, ProcLocalExec, ProcExternal)
		default:
			return fmt.Errorf("%s: proc: unknown kind %q (want %s, %s or %s)", where, g.Proc, ProcInProc, ProcLocalExec, ProcExternal)
		}
		if len(g.Switches) == 0 && len(g.Agents) == 0 {
			return fmt.Errorf("%s: empty group (needs switches and/or agents)", where)
		}
		if len(g.Switches) > 0 && len(g.Agents) > 0 {
			return fmt.Errorf("%s: a group hosts either switches (switchd) or agents (agentd), not both", where)
		}
		for _, sw := range g.Switches {
			if !switches[sw] {
				return fmt.Errorf("%s: switch %d is not in the topology", where, sw)
			}
			if prev, dup := swOwner[sw]; dup {
				return fmt.Errorf("%s: switch %d already placed by group %q", where, sw, prev)
			}
			swOwner[sw] = g.Name
		}
		for _, cl := range g.Agents {
			if agentsSkipped {
				return fmt.Errorf("%s: places agent for client %d but agents.skip is true", where, cl)
			}
			if !clients[cl] {
				return fmt.Errorf("%s: client %d has no access point in the topology", where, cl)
			}
			if prev, dup := agOwner[cl]; dup {
				return fmt.Errorf("%s: client %d already placed by group %q", where, cl, prev)
			}
			agOwner[cl] = g.Name
		}
		if g.Proc == ProcExternal {
			anyExternal = true
			if strings.TrimSpace(g.Token) == "" {
				return fmt.Errorf("%s: token: required for external groups (the join token the launched process must present)", where)
			}
		}
	}
	if anyExternal && strings.TrimSpace(p.RendezvousDir) == "" {
		return fmt.Errorf("rendezvousDir: required when any group is external (deploy writes per-process manifests there)")
	}
	return nil
}

// PlacedSwitches returns the set of switch IDs hosted outside the controller
// process (local-exec or external groups).
func (p *PlacementSpec) PlacedSwitches() map[uint32]string {
	if p == nil {
		return nil
	}
	out := make(map[uint32]string)
	for _, g := range p.Groups {
		if g.Proc == ProcInProc {
			continue
		}
		for _, sw := range g.Switches {
			out[sw] = g.Name
		}
	}
	return out
}

// PlacedAgents returns the set of client IDs whose agents run outside the
// controller process, keyed to the owning group name.
func (p *PlacementSpec) PlacedAgents() map[uint64]string {
	if p == nil {
		return nil
	}
	out := make(map[uint64]string)
	for _, g := range p.Groups {
		if g.Proc == ProcInProc {
			continue
		}
		for _, cl := range g.Agents {
			out[cl] = g.Name
		}
	}
	return out
}

func (t *TopologySpec) validate() error {
	explicit := len(t.Switches) > 0 || len(t.Links) > 0 || len(t.AccessPoints) > 0
	if t.Generator == "" && !explicit {
		return fmt.Errorf("either generator or an explicit switches/links plan is required")
	}
	if t.Generator != "" && explicit {
		return fmt.Errorf("generator %q and an explicit switches/links plan are mutually exclusive", t.Generator)
	}
	if t.Generator != "" {
		return t.validateGenerator()
	}
	return t.validateExplicit()
}

func (t *TopologySpec) validateGenerator() error {
	switch t.Generator {
	case "linear", "ring", "star", "random":
		if t.Size <= 0 {
			return fmt.Errorf("generator %q: size: required (switch count), got %d", t.Generator, t.Size)
		}
		if t.Generator == "ring" && t.Size < 3 {
			return fmt.Errorf("generator ring: size: needs >= 3 switches, got %d", t.Size)
		}
		if t.Generator == "random" {
			if t.Size < 2 {
				return fmt.Errorf("generator random: size: needs >= 2 switches, got %d", t.Size)
			}
			if t.Prob < 0 || t.Prob > 1 {
				return fmt.Errorf("generator random: prob: must be in [0, 1], got %g", t.Prob)
			}
		}
	case "grid":
		if t.Rows <= 0 || t.Cols <= 0 {
			return fmt.Errorf("generator grid: rows/cols: both required and positive, got %dx%d", t.Rows, t.Cols)
		}
	case "fattree":
		if t.K < 2 || t.K%2 != 0 {
			return fmt.Errorf("generator fattree: k: needs an even arity >= 2, got %d", t.K)
		}
	case "wan":
		if len(t.Regions) < 2 {
			return fmt.Errorf("generator wan: regions: needs >= 2 region names, got %d", len(t.Regions))
		}
		if t.PerRegion < 2 {
			return fmt.Errorf("generator wan: perRegion: needs >= 2 switches per region, got %d", t.PerRegion)
		}
	default:
		return fmt.Errorf("unknown generator %q (known: %s)", t.Generator, strings.Join(generatorNames, ", "))
	}
	return nil
}

func (t *TopologySpec) validateExplicit() error {
	if len(t.Switches) == 0 {
		return fmt.Errorf("explicit plan: switches: at least one switch is required")
	}
	ports := make(map[uint32]uint32, len(t.Switches))
	for i, sw := range t.Switches {
		if sw.Ports == 0 {
			return fmt.Errorf("switches[%d]: switch %d: ports: must be >= 1", i, sw.ID)
		}
		if _, dup := ports[sw.ID]; dup {
			return fmt.Errorf("switches[%d]: switch %d declared twice", i, sw.ID)
		}
		ports[sw.ID] = sw.Ports
	}
	type owner struct {
		what string
	}
	used := make(map[EndpointSpec]owner)
	checkEP := func(where string, ep EndpointSpec) error {
		max, ok := ports[ep.Switch]
		if !ok {
			return fmt.Errorf("%s: references undeclared switch %d (a dangling link end)", where, ep.Switch)
		}
		if ep.Port == 0 || ep.Port > max {
			return fmt.Errorf("%s: port %d out of range for switch %d (has %d ports)", where, ep.Port, ep.Switch, max)
		}
		return nil
	}
	for i, l := range t.Links {
		for _, ep := range []EndpointSpec{l.A, l.B} {
			where := fmt.Sprintf("links[%d] (%s-%s)", i, l.A, l.B)
			if err := checkEP(where, ep); err != nil {
				return err
			}
			if prev, clash := used[ep]; clash {
				return fmt.Errorf("links[%d]: port %s already used by %s", i, ep, prev.what)
			}
			used[ep] = owner{what: fmt.Sprintf("links[%d]", i)}
		}
	}
	for i, ap := range t.AccessPoints {
		ep := EndpointSpec{Switch: ap.Switch, Port: ap.Port}
		where := fmt.Sprintf("accessPoints[%d] (client %d)", i, ap.Client)
		if err := checkEP(where, ep); err != nil {
			return err
		}
		if ap.Client == 0 {
			return fmt.Errorf("accessPoints[%d]: client: required (non-zero client ID)", i)
		}
		if prev, clash := used[ep]; clash {
			return fmt.Errorf("accessPoints[%d]: duplicate placement: port %s already used by %s", i, ep, prev.what)
		}
		used[ep] = owner{what: fmt.Sprintf("accessPoints[%d] (client %d)", i, ap.Client)}
	}
	return nil
}

// Build constructs the topology the spec declares. The spec should be
// validated first; Build repeats only the checks needed for safety.
func (t *TopologySpec) Build() (*topology.Topology, error) {
	if t.Generator != "" {
		return t.buildGenerator()
	}
	return t.buildExplicit()
}

func (t *TopologySpec) buildGenerator() (*topology.Topology, error) {
	switch t.Generator {
	case "linear":
		return topology.Linear(t.Size, nil)
	case "ring":
		return topology.Ring(t.Size)
	case "star":
		return topology.Star(t.Size)
	case "grid":
		return topology.Grid(t.Rows, t.Cols)
	case "fattree":
		return topology.FatTree(t.K)
	case "wan":
		regions := make([]topology.Region, len(t.Regions))
		for i, r := range t.Regions {
			regions[i] = topology.Region(r)
		}
		return topology.MultiRegionWAN(regions, t.PerRegion)
	case "random":
		p := t.Prob
		if p == 0 {
			p = 0.1
		}
		return topology.RandomGeometric(t.Size, p, t.Seed)
	}
	return nil, fmt.Errorf("unknown generator %q (known: %s)", t.Generator, strings.Join(generatorNames, ", "))
}

func (t *TopologySpec) buildExplicit() (*topology.Topology, error) {
	if err := t.validateExplicit(); err != nil {
		return nil, err
	}
	topo := topology.New()
	for _, sw := range t.Switches {
		id := topology.SwitchID(sw.ID)
		topo.AddSwitch(id, topology.PortNo(sw.Ports))
		if sw.Region != "" {
			topo.SetRegion(id, topology.Region(sw.Region))
		}
	}
	for _, l := range t.Links {
		err := topo.AddLink(topology.Link{
			A: topology.Endpoint{Switch: topology.SwitchID(l.A.Switch), Port: topology.PortNo(l.A.Port)},
			B: topology.Endpoint{Switch: topology.SwitchID(l.B.Switch), Port: topology.PortNo(l.B.Port)},
		})
		if err != nil {
			return nil, err
		}
	}
	hostSeq := make(map[topology.SwitchID]int)
	for _, ap := range t.AccessPoints {
		sw := topology.SwitchID(ap.Switch)
		mac, ip := topology.HostAddr(sw, hostSeq[sw])
		hostSeq[sw]++
		err := topo.AddAccessPoint(topology.AccessPoint{
			Endpoint: topology.Endpoint{Switch: sw, Port: topology.PortNo(ap.Port)},
			ClientID: ap.Client,
			HostMAC:  mac,
			HostIP:   ip,
		})
		if err != nil {
			return nil, err
		}
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	return topo, nil
}

func sorted(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}

func sortedClients(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
