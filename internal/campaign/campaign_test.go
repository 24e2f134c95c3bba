package campaign

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/labspec"
	"repro/internal/openflow"
	"repro/internal/topology"
)

func testConfig(seed int64) Config {
	return Config{
		Topo:          Topo{Kind: "linear", A: 5},
		Seed:          seed,
		Steps:         16,
		Subscribers:   8,
		SettleTimeout: 10 * time.Second,
	}
}

// TestGenerateDeterministic: the action trace is a pure function of the
// configuration.
func TestGenerateDeterministic(t *testing.T) {
	sws := []uint32{1, 2, 3, 4, 5}
	a := Generate(42, 50, nil, sws, 20)
	b := Generate(42, 50, nil, sws, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different traces")
	}
	if a[19].Op != OpLie {
		t.Fatalf("lie step not placed: step 20 is %s", a[19].Op)
	}
	c := Generate(43, 50, nil, sws, 0)
	if reflect.DeepEqual(a[:10], c[:10]) {
		t.Fatalf("different seeds produced identical prefixes")
	}
	for _, act := range c {
		if act.Op == OpLie {
			t.Fatalf("lie drawn without LieStep")
		}
		if !KnownOp(act.Op) {
			t.Fatalf("generated unknown op %q", act.Op)
		}
	}
}

// TestCampaignCleanAndDeterministic is the heart of the differential
// harness: a seeded adversarial campaign (churn, flaps, restarts, attacks,
// suppression, subscriber churn) completes with zero divergence between the
// incremental primary and the exhaustive (RevalidateAll) oracle, and two runs of
// the same seed produce byte-identical fingerprints over the event, verdict
// and transition streams.
func TestCampaignCleanAndDeterministic(t *testing.T) {
	cfg := testConfig(7)
	r1, err := New(cfg).Run()
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if r1.Divergence != nil {
		t.Fatalf("run 1 diverged: %s", r1.Divergence)
	}
	if r1.Events == 0 {
		t.Fatalf("campaign committed no events")
	}
	r2, err := New(cfg).Run()
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatalf("same seed, different fingerprints:\n  run1 %s\n  run2 %s", r1.Fingerprint, r2.Fingerprint)
	}
	if !reflect.DeepEqual(r1.Actions, r2.Actions) {
		t.Fatalf("same seed, different action traces")
	}
}

// lieTrace is a hand-built campaign whose OpLie (Key 1 → the access point
// that subscription 1's reachability invariant watches on linear/5) breaks
// reachability while corrupting the primary's committed transitions.
func lieTrace() []Action {
	return []Action{
		{Op: OpChurn, Switch: 2, Count: 3, Key: 0x10},
		{Op: OpShadow, Switch: 3, Key: 0x20},
		{Op: OpLie, Key: 1},
	}
}

// TestLieCaughtByOracle injects a Byzantine verdict stream: the commit tap
// inverts the violation the lie provokes before it reaches the violation
// log, while the trusted oracle replays the same events honestly. The
// differ must flag the transition stream.
func TestLieCaughtByOracle(t *testing.T) {
	cfg := testConfig(3)
	res, err := New(cfg).Execute(lieTrace())
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if res.Divergence == nil {
		t.Fatalf("lying verdict stream not caught (fingerprint %s)", res.Fingerprint)
	}
	if res.Divergence.Kind != "transition" {
		t.Fatalf("expected a transition divergence, got: %s", res.Divergence)
	}
}

// TestShrinkLie reduces the lie campaign to a 1-minimal reproducer: the
// churn/shadow dressing must shrink away, leaving the single lie action.
func TestShrinkLie(t *testing.T) {
	cfg := testConfig(3)
	min, res, err := Shrink(cfg, lieTrace())
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if res.Divergence == nil || res.Divergence.Kind != "transition" {
		t.Fatalf("shrunk trace lost the divergence: %+v", res.Divergence)
	}
	if len(min) != 1 || min[0].Op != OpLie {
		t.Fatalf("expected the single lie action to survive, got %s", summarize(min))
	}
}

// TestOracleDifferentialWaypointAndPathLength pins the differ's coverage of
// the two invariant kinds beyond reach/isolation: a traffic-diversion
// attack reroutes a victim through a detour switch, moving verdicts on
// waypoint-avoidance and path-length subscriptions; the incremental primary
// and exhaustive oracle must track every transition identically.
func TestOracleDifferentialWaypointAndPathLength(t *testing.T) {
	cfg := testConfig(5)
	// Subscribers 8 on linear/5 cycles reach/isolation/path-length/waypoint
	// twice over the access points (keys 2,6 → path-length; 3,7 → waypoint).
	trace := []Action{
		{Op: OpAttack, Name: "traffic-diversion", Key: 3},
		{Op: OpPoll},
		{Op: OpAttack, Name: "meter-throttle", Key: 2},
		{Op: OpRevert, Name: "traffic-diversion"},
		{Op: OpFlap, Switch: 4, Key: 2},
		{Op: OpRevert, Name: "meter-throttle"},
		{Op: OpPoll},
	}
	res, err := New(cfg).Execute(trace)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if res.Divergence != nil {
		t.Fatalf("waypoint/path-length differential diverged: %s", res.Divergence)
	}
	if res.Transitions == 0 {
		t.Fatalf("attack trace moved no verdicts; differential coverage is vacuous")
	}
}

// TestDifferRefusesOverflowedStep: the per-step transition differ reads the
// bounded violation ring, so a step that commits more transitions than the
// ring holds evicts its own oldest records. Comparing what is left could
// agree while the lost records differ — the differ must report the
// overflow, never pass (or mis-blame a "missing" line).
func TestDifferRefusesOverflowedStep(t *testing.T) {
	topo, err := topology.Linear(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(topo, deploy.Options{SkipAgents: true, ManualRecheck: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	orc, err := newOracle(topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer orc.Close()
	e := New(testConfig(1))
	x := newExecutor(d, topo)
	sync := func() {
		t.Helper()
		if err := e.settle(x); err != nil {
			t.Fatal(err)
		}
		for _, ev := range d.RVaaS.ExportState() {
			orc.ctl.ReplayTap(ev)
		}
		d.RVaaS.RecheckNow()
		orc.ctl.RevalidateAll()
	}
	sync()
	// About half the invariants flip when the middle switch drops
	// everything: register enough that the flips outnumber the primary's
	// violation ring.
	ring := d.RVaaS.ViolationLog().Capacity()
	if err := x.registerBase(orc.ctl, 3*ring); err != nil {
		t.Fatal(err)
	}
	sync()
	pCursor, sCursor := d.RVaaS.ViolationLog().Appended(), orc.ctl.ViolationLog().Appended()
	if dv := e.compare(0, "setup", x, orc, pCursor, sCursor); dv != nil {
		t.Fatalf("setup diverged: %s", dv)
	}

	// One step that flips more verdicts than the ring holds: the middle
	// switch drops everything.
	d.Fabric.Switch(2).InstallDirect(openflow.FlowEntry{Priority: 0xFFF0, Cookie: 0xD40F})
	sync()
	if n := d.RVaaS.ViolationLog().Appended() - pCursor; n <= uint64(ring) {
		t.Fatalf("step committed %d transitions; need more than the ring's %d", n, ring)
	}
	dv := e.compare(1, "drop-all", x, orc, pCursor, sCursor)
	if dv == nil || dv.Kind != "transition" || !strings.Contains(dv.Detail, "overflowed during step") {
		t.Fatalf("differ on an overflowed step = %v, want an overflow divergence", dv)
	}
}

// TestArtifactRoundTrip pins the reproducer serialization format.
func TestArtifactRoundTrip(t *testing.T) {
	art := &Artifact{
		Name:        "roundtrip",
		Seed:        3,
		Topology:    Topo{Kind: "linear", A: 5},
		Subscribers: 8,
		Expect:      ExpectDivergence,
		ExpectKind:  "transition",
		Actions:     lieTrace(),
	}
	path := filepath.Join(t.TempDir(), "roundtrip.json")
	if err := art.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadArtifact(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(art, got) {
		a, _ := json.Marshal(art)
		b, _ := json.Marshal(got)
		t.Fatalf("artifact round-trip mismatch:\n  saved  %s\n  loaded %s", a, b)
	}
	// Artifacts saved by earlier builds name an oracle mode; it is ignored.
	var old Artifact
	if err := json.Unmarshal([]byte(`{"name":"old","oracle":"per-switch","expect":"clean","actions":[{"op":"poll"}]}`), &old); err != nil || old.Validate() != nil {
		t.Fatalf("artifact with a retired oracle key rejected: %v / %v", err, old.Validate())
	}
	if err := (&Artifact{Name: "bad", Expect: "maybe", Actions: lieTrace()}).Validate(); err == nil {
		t.Fatalf("bogus expectation passed validation")
	}
	if err := (&Artifact{Name: "bad", Expect: ExpectClean,
		Actions: []Action{{Op: "frobnicate"}}}).Validate(); err == nil {
		t.Fatalf("unknown op passed validation")
	}
}

// TestCorpusReplay replays every graduated artifact in testdata/campaigns/
// and asserts its recorded expectation still holds — the regression corpus
// the CI gate runs.
func TestCorpusReplay(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "campaigns", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no graduated campaign artifacts found")
	}
	for _, p := range paths {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			art, err := LoadArtifact(p)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if _, err := art.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpecOpsInSync pins the contract between labspec's campaign weights
// validation (which cannot import this package) and the actual grammar.
func TestSpecOpsInSync(t *testing.T) {
	specOps := labspec.CampaignOps()
	listed := make(map[string]bool, len(specOps))
	for _, op := range specOps {
		if !KnownOp(op) {
			t.Errorf("labspec.CampaignOps lists %q, which the grammar does not know", op)
		}
		listed[op] = true
	}
	for op := range DefaultWeights() {
		if !listed[op] {
			t.Errorf("grammar op %q missing from labspec.CampaignOps", op)
		}
	}
	if !listed[OpLie] {
		t.Errorf("labspec.CampaignOps must list %q", OpLie)
	}
	if len(specOps) != len(DefaultWeights())+1 {
		t.Errorf("labspec.CampaignOps has %d ops, grammar has %d", len(specOps), len(DefaultWeights())+1)
	}
}

// TestFromSpec maps a lab spec's campaign section onto an engine config.
func TestFromSpec(t *testing.T) {
	doc := `name: c
topology:
  generator: grid
  rows: 2
  cols: 3
campaign:
  seed: 9
  steps: 12
  subscribers: 4
  lieStep: 6
  settleTimeout: 2s
`
	s, err := labspec.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := FromSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Topo:          Topo{Kind: "grid", A: 2, B: 3},
		Seed:          9,
		Steps:         12,
		Subscribers:   4,
		LieStep:       6,
		SettleTimeout: 2 * time.Second,
	}
	cfg.Weights, want.Weights = nil, nil
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("config = %+v, want %+v", cfg, want)
	}
	if _, err := FromSpec(&labspec.Spec{Name: "x",
		Topology: labspec.TopologySpec{Generator: "linear", Size: 3}}); err == nil {
		t.Fatal("spec without campaign section accepted")
	}
}
