// Package campaign is the adversarial campaign engine: seeded randomized
// attack/churn campaigns driven step-by-step against a full in-process
// RVaaS lab while a shadow controller replays the identical committed event
// stream and re-evaluates every standing invariant from scratch after each
// step (RevalidateAll, the exhaustive reference). Any divergence between the
// two verdict streams — per-subscription verdict/detail/seq state or the
// violation-log transition stream — fails the campaign, and the engine
// shrinks the failing action trace to a minimal reproducer serialized as a
// replayable JSON artifact (see artifact.go, testdata/campaigns/).
//
// The action grammar covers the scenario families the ROADMAP names: churn
// storms, short-lived rule flaps timed inside the poll interval,
// shadowed-rule smuggling, switch restarts mid-batch, lying switches
// (event suppression, Byzantine verdict-stream corruption via the commit
// tap), control-plane attacks, subscriber churn, and fault windows
// (session detach/reattach — the single-process analogue of the placed-lab
// faultinject trunk partitions).
package campaign

import (
	"fmt"
	"math/rand"
	"sort"
)

// Action ops. Every action is concrete and self-contained: executing a
// trace prefix fully determines lab state, so shrunk sub-traces replay
// deterministically.
const (
	// OpChurn installs Count benign low-priority rules derived from Key on
	// one switch; OpUnchurn removes exactly the same derived rules.
	OpChurn   = "churn"
	OpUnchurn = "unchurn"
	// OpFlap installs and immediately removes a drop rule inside one step —
	// a short-lived insertion timed inside the poll interval, visible only
	// through the passive event stream.
	OpFlap = "flap"
	// OpShadow smuggles a fully shadowed rule: a high-priority forwarder
	// followed by a lower-priority drop for the same (unused) prefix. The
	// incremental dispatcher must skip it; the trusted oracle re-verifies
	// everything and must agree.
	OpShadow = "shadow"
	// OpRestart detaches and immediately re-attaches one switch's control
	// session mid-batch (the re-attach's initial sync re-bases the wiped
	// snapshot).
	OpRestart = "restart"
	// OpDetach / OpReattach open and close a fault window on one switch's
	// session — degraded verdicts must appear (never stale-green) while the
	// window is open.
	OpDetach   = "detach"
	OpReattach = "reattach"
	// OpAttack launches a named control-plane attack with deterministic
	// parameters derived from Key; OpRevert reverts it if active.
	OpAttack = "attack"
	OpRevert = "revert"
	// OpSuppress sets a switch's event suppression (a lying switch that
	// mutates state without reporting it); OpPoll runs a full active poll
	// sweep, the paper's defense that catches exactly that.
	OpSuppress = "suppress"
	OpPoll     = "poll"
	// OpSub / OpUnsub register/remove a standing invariant mid-run
	// (subscriber churn), mirrored identically on primary and shadow.
	OpSub   = "sub"
	OpUnsub = "unsub"
	// OpLie breaks reachability of one access point and simultaneously
	// corrupts every verdict transition the primary commits this step
	// (Byzantine verdict stream). The differential oracle must catch it.
	OpLie = "lie"
)

// Action is one concrete campaign step, serializable into replay artifacts.
type Action struct {
	Op     string `json:"op"`
	Switch uint32 `json:"switch,omitempty"`
	Count  int    `json:"count,omitempty"`
	// Key seeds deterministic derivation of rules, targets and attack
	// parameters, so the action means the same thing in any trace.
	Key  uint64 `json:"key,omitempty"`
	Name string `json:"name,omitempty"`
	On   bool   `json:"on,omitempty"`
}

func (a Action) String() string {
	s := a.Op
	if a.Switch != 0 {
		s += fmt.Sprintf(" sw=%d", a.Switch)
	}
	if a.Name != "" {
		s += " " + a.Name
	}
	if a.Count != 0 {
		s += fmt.Sprintf(" n=%d", a.Count)
	}
	if a.Key != 0 {
		s += fmt.Sprintf(" key=%#x", a.Key)
	}
	if a.Op == OpSuppress {
		s += fmt.Sprintf(" on=%t", a.On)
	}
	return s
}

// attackNames are the control-plane compromises the grammar can launch.
var attackNames = []string{
	"traffic-diversion",
	"exfiltration",
	"geo-violation",
	"neutrality-violation",
	"meter-throttle",
}

// DefaultWeights is the default action-grammar distribution. Keys are the
// Op* constants; OpLie is never drawn (it is placed explicitly by
// Config.LieStep) and OpReattach/OpRevert/OpUnchurn/OpPoll weights keep
// opened windows from accumulating without bound.
func DefaultWeights() map[string]int {
	return map[string]int{
		OpChurn:    8,
		OpUnchurn:  5,
		OpFlap:     5,
		OpShadow:   4,
		OpRestart:  2,
		OpDetach:   2,
		OpReattach: 3,
		OpAttack:   3,
		OpRevert:   3,
		OpSuppress: 3,
		OpPoll:     5,
		OpSub:      2,
		OpUnsub:    1,
	}
}

// KnownOp reports whether op names a grammar action.
func KnownOp(op string) bool {
	switch op {
	case OpChurn, OpUnchurn, OpFlap, OpShadow, OpRestart, OpDetach,
		OpReattach, OpAttack, OpRevert, OpSuppress, OpPoll, OpSub,
		OpUnsub, OpLie:
		return true
	}
	return false
}

// Generate derives the concrete action trace of a seeded campaign: a pure
// function of (seed, steps, weights, switch count), so the same
// configuration always produces the same program.
func Generate(seed int64, steps int, weights map[string]int, switches []uint32, lieStep int) []Action {
	if len(weights) == 0 {
		weights = DefaultWeights()
	}
	// Deterministic draw order regardless of map iteration.
	ops := make([]string, 0, len(weights))
	total := 0
	for op, w := range weights {
		if w > 0 && op != OpLie {
			ops = append(ops, op)
		}
	}
	sort.Strings(ops)
	for _, op := range ops {
		total += weights[op]
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func() string {
		n := rng.Intn(total)
		for _, op := range ops {
			n -= weights[op]
			if n < 0 {
				return op
			}
		}
		return ops[len(ops)-1]
	}
	out := make([]Action, 0, steps)
	for i := 0; i < steps; i++ {
		if lieStep > 0 && i+1 == lieStep {
			out = append(out, Action{Op: OpLie, Key: rng.Uint64()})
			continue
		}
		op := pick()
		a := Action{Op: op, Key: rng.Uint64()}
		switch op {
		case OpChurn, OpUnchurn:
			a.Switch = switches[rng.Intn(len(switches))]
			a.Count = 1 + rng.Intn(4)
		case OpFlap, OpShadow, OpRestart, OpDetach, OpReattach:
			a.Switch = switches[rng.Intn(len(switches))]
		case OpSuppress:
			a.Switch = switches[rng.Intn(len(switches))]
			a.On = rng.Intn(2) == 0
		case OpAttack, OpRevert:
			a.Name = attackNames[rng.Intn(len(attackNames))]
		}
		out = append(out, a)
	}
	return out
}
