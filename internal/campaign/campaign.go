package campaign

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/deploy"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/verifier"
)

// beatMissContract is the stale-green bound the fault plane measures
// (ROADMAP: detach-detect vs the 400 ms contract): from the instant a
// switch's control session is lost, degraded verdict transitions must be
// committed within this window.
const beatMissContract = 400 * time.Millisecond

// Topo is a serializable lab topology recipe, so shrunk reproducers can be
// replayed against a freshly built, byte-identical lab.
type Topo struct {
	Kind string `json:"kind"` // linear | ring | star | grid | fattree
	A    int    `json:"a"`
	B    int    `json:"b,omitempty"` // grid columns (unused otherwise)
}

// Build constructs the topology and deterministically assigns regions when
// the generator left switches unplaced (waypoint invariants need regions).
func (t Topo) Build() (*topology.Topology, error) {
	var (
		topo *topology.Topology
		err  error
	)
	switch t.Kind {
	case "", "linear":
		topo, err = topology.Linear(t.A, nil)
	case "ring":
		topo, err = topology.Ring(t.A)
	case "star":
		topo, err = topology.Star(t.A)
	case "grid":
		cols := t.B
		if cols == 0 {
			cols = t.A
		}
		topo, err = topology.Grid(t.A, cols)
	case "fattree":
		topo, err = topology.FatTree(t.A)
	default:
		return nil, fmt.Errorf("campaign: unknown topology kind %q", t.Kind)
	}
	if err != nil {
		return nil, err
	}
	for i, sw := range topo.Switches() {
		if topo.RegionOf(sw) == "" {
			topo.SetRegion(sw, topology.Region(fmt.Sprintf("r%d", i%3)))
		}
	}
	return topo, nil
}

// Config parameterizes one campaign.
type Config struct {
	// Topo is the lab recipe (default: linear/6).
	Topo Topo
	// Seed drives action generation; the same (Seed, Steps, Weights, Topo)
	// produces a byte-identical event stream and verdict fingerprints.
	Seed int64
	// Steps is the campaign length in actions (Run only).
	Steps int
	// Weights overrides the action-grammar distribution (nil = defaults).
	Weights map[string]int
	// Subscribers is the number of standing invariants registered up front,
	// cycling reach/isolation/path-length/waypoint (default 8).
	Subscribers int
	// LieStep, when > 0, replaces that step's action with OpLie: a
	// reachability break whose verdict transitions the primary commits
	// corrupted (Byzantine verdict stream). The oracle differ must flag it.
	LieStep int
	// SettleTimeout bounds the per-step quiescence barrier (default 5s).
	SettleTimeout time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
	// OnLab, when set, receives the freshly built primary deployment before
	// the campaign starts (attacksim mounts the admin API on it so live
	// progress is visible at GET /v1/campaign while the campaign runs).
	OnLab func(*deploy.Deployment)
}

func (c Config) withDefaults() Config {
	if c.Topo.Kind == "" {
		c.Topo.Kind = "linear"
	}
	if c.Topo.A == 0 {
		c.Topo.A = 6
	}
	if c.Steps == 0 {
		c.Steps = 40
	}
	if c.Subscribers == 0 {
		c.Subscribers = 8
	}
	if c.SettleTimeout == 0 {
		c.SettleTimeout = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Divergence is one differential-oracle failure: the step it surfaced at
// and which of the compared streams disagreed.
type Divergence struct {
	Step   int    `json:"step"`
	Action string `json:"action"`
	// Kind is "verdict" (per-subscription state), "transition" (violation-
	// log stream) or "stale-green" (beat-miss contract breach).
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

func (d *Divergence) String() string {
	return fmt.Sprintf("step %d (%s): %s divergence: %s", d.Step, d.Action, d.Kind, d.Detail)
}

// Result summarizes one executed campaign.
type Result struct {
	Steps       int
	Actions     []Action
	Events      int
	Transitions int
	// Fingerprint is the canonical digest of (event stream, verdict
	// states, transition stream) — byte-identical across runs of one seed.
	Fingerprint string
	// Divergence is nil for a clean campaign.
	Divergence    *Divergence
	StaleGreenMax time.Duration
}

// Status is a read-only progress snapshot (admin GET /v1/campaign).
type Status struct {
	Running       bool        `json:"running"`
	Seed          int64       `json:"seed"`
	Step          int         `json:"step"`
	Steps         int         `json:"steps"`
	LastAction    string      `json:"last_action,omitempty"`
	Events        int         `json:"events"`
	Transitions   int         `json:"transitions"`
	Diverged      bool        `json:"diverged"`
	Divergence    *Divergence `json:"divergence,omitempty"`
	Fingerprint   string      `json:"fingerprint,omitempty"`
	StaleGreenMax string      `json:"stale_green_max,omitempty"`
}

// Engine executes campaigns and exposes live progress.
type Engine struct {
	cfg Config

	mu sync.Mutex
	st Status
}

// New returns an engine for one campaign configuration.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{cfg: cfg, st: Status{Seed: cfg.Seed, Steps: cfg.Steps}}
}

// Status returns the engine's current progress snapshot.
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st
}

func (e *Engine) update(fn func(*Status)) {
	e.mu.Lock()
	fn(&e.st)
	e.mu.Unlock()
}

// Run generates the seeded action trace and executes it.
func (e *Engine) Run() (*Result, error) {
	topo, err := e.cfg.Topo.Build()
	if err != nil {
		return nil, err
	}
	sws := topo.Switches()
	ids := make([]uint32, len(sws))
	for i, sw := range sws {
		ids[i] = uint32(sw)
	}
	actions := Generate(e.cfg.Seed, e.cfg.Steps, e.cfg.Weights, ids, e.cfg.LieStep)
	return e.Execute(actions)
}

// tapRecorder buffers the primary's committed event stream between steps.
type tapRecorder struct {
	mu  sync.Mutex
	buf []rvaas.TapEvent
}

func (r *tapRecorder) record(ev rvaas.TapEvent) {
	r.mu.Lock()
	r.buf = append(r.buf, ev)
	r.mu.Unlock()
}

func (r *tapRecorder) drain() []rvaas.TapEvent {
	r.mu.Lock()
	out := r.buf
	r.buf = nil
	r.mu.Unlock()
	return out
}

// Execute runs one explicit action trace against a freshly built lab +
// oracle pair and differentially checks every step. The returned error
// reports engine/lab failures; oracle disagreements come back as
// Result.Divergence.
func (e *Engine) Execute(actions []Action) (*Result, error) {
	cfg := e.cfg
	topo, err := cfg.Topo.Build()
	if err != nil {
		return nil, err
	}
	d, err := deploy.New(topo, deploy.Options{
		SkipAgents:    true,
		ManualRecheck: true,
		Seed:          cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: lab bring-up: %w", err)
	}
	defer d.Close()
	orc, err := newOracle(topo, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	defer orc.Close()

	if cfg.OnLab != nil {
		cfg.OnLab(d)
	}
	x := newExecutor(d, topo)
	e.update(func(s *Status) {
		*s = Status{Running: true, Seed: cfg.Seed, Steps: len(actions)}
	})
	defer e.update(func(s *Status) { s.Running = false })

	// Quiesce bring-up, then install the tap and seed the oracle with the
	// primary's committed baseline before any subscriptions exist.
	if err := e.settle(x); err != nil {
		return nil, err
	}
	rec := &tapRecorder{}
	d.RVaaS.SetEventTap(rec.record)
	defer d.RVaaS.SetEventTap(nil)
	for _, ev := range d.RVaaS.ExportState() {
		orc.ctl.ReplayTap(ev)
	}

	// Identical registration order on both controllers ⇒ identical
	// subscription ids ⇒ verdict streams compare line-for-line.
	if err := x.registerBase(orc.ctl, cfg.Subscribers); err != nil {
		return nil, err
	}
	d.RVaaS.RecheckNow()
	orc.ctl.RevalidateAll()
	if dv := e.compare(0, "setup", x, orc,
		d.RVaaS.ViolationLog().Appended(), orc.ctl.ViolationLog().Appended()); dv != nil {
		// Registration-time disagreement: report as a step-0 divergence.
		return e.finish(actions, 0, 0, 0, &fingerprints{}, dv, 0), nil
	}

	fp := &fingerprints{}
	events, transitions := 0, 0
	var staleMax time.Duration
	var dv *Divergence

	pCursor := d.RVaaS.ViolationLog().Appended()
	sCursor := orc.ctl.ViolationLog().Appended()

	for i, a := range actions {
		step := i + 1
		cfg.Logf("step %d/%d: %s", step, len(actions), a)
		e.update(func(s *Status) { s.Step = step; s.LastAction = a.String() })

		if a.Op == OpLie {
			d.RVaaS.SetCommitTap(lieTap)
		}
		if err := x.apply(a); err != nil {
			d.RVaaS.SetCommitTap(nil)
			return nil, fmt.Errorf("campaign: step %d (%s): %w", step, a, err)
		}
		if err := e.settle(x); err != nil {
			d.RVaaS.SetCommitTap(nil)
			return nil, fmt.Errorf("campaign: step %d (%s): %w", step, a, err)
		}
		d.RVaaS.RecheckNow()
		d.RVaaS.SetCommitTap(nil)
		if !x.lastDetach.IsZero() {
			if w := time.Since(x.lastDetach); w > staleMax {
				staleMax = w
			}
		}

		evs := canonicalizeEvents(rec.drain())
		for _, ev := range evs {
			orc.ctl.ReplayTap(ev)
		}
		orc.ctl.RevalidateAll()

		events += len(evs)
		fp.events = hashEvents(fp.events, evs)
		pv := verdictLines(d.RVaaS.Subscriptions())
		fp.verdicts = hashLines(fp.verdicts, pv)
		pt := transitionLines(d.RVaaS.ViolationLog().Since(pCursor))
		transitions += len(pt)
		fp.transitions = hashLines(fp.transitions, pt)

		dv = e.compare(step, a.String(), x, orc, pCursor, sCursor)
		pCursor = d.RVaaS.ViolationLog().Appended()
		sCursor = orc.ctl.ViolationLog().Appended()
		if dv == nil && !x.lastDetach.IsZero() {
			if w := time.Since(x.lastDetach); w > beatMissContract {
				dv = &Divergence{Step: step, Action: a.String(), Kind: "stale-green",
					Detail: fmt.Sprintf("detach-to-degraded window %v exceeds the %v beat-miss contract", w, beatMissContract)}
			}
		}
		x.lastDetach = time.Time{}

		e.update(func(s *Status) {
			s.Events = events
			s.Transitions = transitions
			s.Fingerprint = fp.String()
			s.StaleGreenMax = staleMax.String()
			if dv != nil {
				s.Diverged = true
				s.Divergence = dv
			}
		})
		if dv != nil {
			cfg.Logf("DIVERGENCE at %s", dv)
			return e.finish(actions, step, events, transitions, fp, dv, staleMax), nil
		}
	}
	return e.finish(actions, len(actions), events, transitions, fp, nil, staleMax), nil
}

func (e *Engine) finish(actions []Action, steps, events, transitions int, fp *fingerprints, dv *Divergence, stale time.Duration) *Result {
	return &Result{
		Steps:         steps,
		Actions:       actions,
		Events:        events,
		Transitions:   transitions,
		Fingerprint:   fp.String(),
		Divergence:    dv,
		StaleGreenMax: stale,
	}
}

// compare differentially checks the primary against the oracle: the full
// per-subscription verdict state, then the transition streams appended
// since the given cursors.
func (e *Engine) compare(step int, action string, x *executor, orc *oracle, pCursor, sCursor uint64) *Divergence {
	pv := verdictLines(x.d.RVaaS.Subscriptions())
	sv := verdictLines(orc.ctl.Subscriptions())
	if diff := firstDiff(pv, sv); diff != "" {
		return &Divergence{Step: step, Action: action, Kind: "verdict", Detail: diff}
	}
	pt, pComplete := stepTransitions(x.d.RVaaS.ViolationLog(), pCursor)
	st, sComplete := stepTransitions(orc.ctl.ViolationLog(), sCursor)
	if !pComplete || !sComplete {
		// The ring evicted records of this very step: the retained streams
		// could agree while the lost ones differ, so this is not a pass.
		return &Divergence{Step: step, Action: action, Kind: "transition",
			Detail: fmt.Sprintf("violation log overflowed during step (primary retains %d, oracle %d of the step's transitions)", len(pt), len(st))}
	}
	if diff := firstDiff(pt, st); diff != "" {
		return &Divergence{Step: step, Action: action, Kind: "transition", Detail: diff}
	}
	return nil
}

// settle blocks until the data plane and the primary's snapshot agree:
// every attached switch's table-change sequence is stable and fully
// ingested. Suppressed (lying) switches don't advance their sequence, so
// hidden mutations never block the barrier — exactly the stale view the
// campaign wants to exercise.
func (e *Engine) settle(x *executor) error {
	deadline := time.Now().Add(e.cfg.SettleTimeout)
	stable := 0
	var last []uint64
	for {
		seqs := make([]uint64, 0, len(x.switches))
		ok := true
		for _, sw := range x.switches {
			if x.detached[sw] {
				seqs = append(seqs, 0)
				continue
			}
			want := x.d.Fabric.Switch(sw).TableSeq()
			seqs = append(seqs, want)
			if x.d.RVaaS.SnapshotSeq(sw) < want {
				ok = false
			}
		}
		if ok && seqsEqual(seqs, last) {
			stable++
			if stable >= 3 {
				return nil
			}
		} else {
			stable = 0
		}
		last = seqs
		if time.Now().After(deadline) {
			return fmt.Errorf("campaign: settle barrier timed out after %v", e.cfg.SettleTimeout)
		}
		time.Sleep(300 * time.Microsecond)
	}
}

func seqsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lieTap is the Byzantine commit corruption OpLie arms on the primary: it
// inverts every transition's verdict before it reaches the violation log
// and the notification path, while the engine's internal state keeps the
// honest verdict — precisely a component lying on the client-visible
// stream.
func lieTap(t *verifier.Transition) {
	if !t.Changed {
		return
	}
	t.Violated = !t.Violated
	t.Detail = "liar: " + t.Detail
}
