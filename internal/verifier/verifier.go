// Package verifier hosts the standing-invariant verification engine.
// Engine owns subscription identity (ids, replay nonces), the sharded
// subscription map, the inverted switch → traversal-class footprint index,
// the per-pass worker pool and the verdict commit with index re-sync. The
// host (the controller) supplies an Env: invariant evaluation stays domain
// logic above this package, and every committed verdict transition is
// handed back OUT of the shard locks for persistence, violation-log append
// and notification delivery.
//
// The unit of the index is a traversal — one injection, one
// headerspace.Footprint: a reach, path-length or waypoint invariant has
// one, an isolation invariant one per edge port (its cones). A switch's
// entries are grouped into classes by what each traversal presented there
// (byte-equal slice terms and in-port set), so a pass tests a switch's
// rule delta once per class, not once per invariant, and hands the host
// exactly the traversals the delta can affect.
//
// There is one dispatch path (index → one overlap test per class →
// evaluate the dirty traversals) and one reference for its verdicts: a
// Force pass, which enumerates every invariant and evaluates it from
// scratch, consulting neither recorded footprints nor the host's
// evaluation caches. A verdict the incremental path carries forward is
// correct exactly when a Force pass over the same snapshot would not flip
// it.
package verifier

import (
	"fmt"
	"strconv"

	"repro/internal/headerspace"
	"repro/internal/topology"
	"repro/internal/wire"
)

// ShardCount fixes the number of subscription map shards and inverted
// index shards (power of two so the shard pick is a mask).
const ShardCount = 32

// Anchor is the access point an invariant is registered at: the
// subscriber's network card, where notifications are injected.
type Anchor struct {
	Switch topology.SwitchID
	Port   topology.PortNo
	MAC    uint64
	IP     uint32
}

// Subscription is one standing invariant. Identity fields are immutable
// after registration; verdict state (Violated, Detail, Traversals, Seq,
// Removed) is guarded by the owning shard's mutex. The evaluation-only
// cone cache (Cones) is touched only during evaluation, which the engine's
// run lock serializes per subscription.
type Subscription struct {
	ID          uint64
	ClientID    uint64
	Nonce       uint64
	Kind        wire.QueryKind
	Constraints []wire.FieldConstraint
	Param       string
	Bound       int // parsed Param for path-length invariants
	Anchor      Anchor
	// SessionID is the client session the invariant was registered under;
	// session resume enumerates by it.
	SessionID uint64

	Violated bool
	Detail   string
	// Traversals holds the footprint each of the invariant's traversals
	// recorded when it last ran, by traversal index; the index holds one
	// entry per traversal per switch it visited.
	Traversals []headerspace.Footprint
	Evaluated  bool
	Removed    bool
	Seq        uint64

	// NeedsFullEval marks a subscription restored from the persistence
	// store: its verdict/seq are durable state but footprints and cones
	// are not, so the next pass re-evaluates it from scratch regardless
	// of the dirty set.
	NeedsFullEval bool

	// Cones is the host's per-subscription evaluation cache (the
	// controller's isolation cone cache); opaque to this package.
	Cones any
}

// Source carries the wire-level provenance of a registration: the
// operation nonce (0 for in-process callers) and the client session.
type Source struct {
	Nonce     uint64
	SessionID uint64
}

// NewSubscription validates an invariant spec and builds the
// (unregistered) subscription object. Shared by single registration,
// batch registration and persistence restore.
func NewSubscription(clientID uint64, src Source, kind wire.QueryKind, constraints []wire.FieldConstraint, param string, anchor Anchor) (*Subscription, error) {
	sub := &Subscription{
		ClientID:    clientID,
		Nonce:       src.Nonce,
		SessionID:   src.SessionID,
		Kind:        kind,
		Constraints: append([]wire.FieldConstraint(nil), constraints...),
		Param:       param,
		Anchor:      anchor,
	}
	switch kind {
	case wire.QueryReachableDestinations, wire.QueryIsolation, wire.QueryWaypointAvoidance:
	case wire.QueryPathLength:
		bound, err := strconv.Atoi(param)
		if err != nil {
			return nil, fmt.Errorf("verifier: path-length subscription needs integer Param, got %q", param)
		}
		sub.Bound = bound
	default:
		return nil, fmt.Errorf("verifier: unsupported subscription kind %s", kind)
	}
	return sub, nil
}

// Verdict is one invariant evaluation outcome, produced by the host's
// Env.Evaluate. The isolation cone-cache counters ride along so the
// evaluator never touches engine state directly.
type Verdict struct {
	Violated bool
	Detail   string
	// Ran lists the traversals this evaluation re-ran with the footprint
	// each recorded — all of them after a full sweep, the dirty ones
	// otherwise. Commit re-indexes exactly these.
	Ran []TraversalFootprint
	// IsoPointsSwept/IsoPointsReused count per-injection-point cone
	// evaluations re-run versus served from the cone cache during this
	// evaluation (zero for non-isolation kinds).
	IsoPointsSwept  uint64
	IsoPointsReused uint64
}

// TraversalFootprint is the footprint one traversal of an invariant
// recorded when it ran.
type TraversalFootprint struct {
	Index int
	FP    headerspace.Footprint
}

// Transition is one committed verdict publication, handed to Env.Commit
// OUTSIDE the shard lock — only on first commit or on a verdict flip.
// Identity fields are read through Sub (immutable after registration);
// the verdict fields are copies captured under the shard lock, so the
// record can never mix two commits.
type Transition struct {
	Sub      *Subscription
	Violated bool
	Detail   string
	// Seq is the subscription's notification sequence number after this
	// commit (incremented exactly when Changed).
	Seq        uint64
	SnapshotID uint64
	// First marks the subscription's first-ever commit; Changed marks a
	// verdict flip (the notification-worthy event). Durable state should
	// be written when First || Changed; log/notify when Changed.
	Changed bool
	First   bool
	// Notify is false for registration-time initial evaluations (the ack
	// carries the verdict) and true for recheck passes.
	Notify bool
}

// Env is the host side of the engine: invariant evaluation (domain logic
// over the compiled network) and commit fan-out (persistence, violation
// log, notification delivery). Evaluate is called with the engine's run
// lock held (directly or from a pass's worker pool): with
// fullSweep it re-runs every traversal of the invariant from scratch,
// otherwise exactly the traversals in dirty (ascending indexes — the ones
// the pass's deltas can affect). Commit is called outside every engine
// lock.
type Env interface {
	Evaluate(net *headerspace.Network, sub *Subscription, dirty []int, fullSweep, pooled bool) Verdict
	Commit(t Transition)
}

// EvalContext parameterizes registration-time initial evaluations. Build
// returns the compiled network and snapshot id; it is called once, inside
// the engine's run lock.
type EvalContext struct {
	Build   func() (*headerspace.Network, uint64)
	Workers int
}

// Pass describes one re-verification pass, assembled by the host from the
// drained snapshot deltas.
type Pass struct {
	// Build returns the compiled network and snapshot id; called only if
	// the pass has evaluation targets (so a pass that revalidates
	// everything for free never compiles).
	Build func() (*headerspace.Network, uint64)
	// Deltas maps each switch dispatched through the index — those whose
	// generation advanced since the previous pass, minus the ones whose
	// rule delta is semantically empty — to its rule-delta header space
	// (and in-port refinement). A traversal indexed at a dispatched switch
	// re-runs only if what it presented there overlaps the delta.
	Deltas map[headerspace.NodeID]headerspace.Delta
	// Force re-evaluates every invariant from scratch, ignoring Deltas,
	// recorded footprints and cone caches (RevalidateAll) — the exhaustive
	// reference the incremental path must agree with.
	Force bool
	// Workers bounds the pass's evaluation fan-out.
	Workers int
}

// SubState is a read-only snapshot of one standing invariant, taken under
// its shard lock.
type SubState struct {
	ID        uint64
	ClientID  uint64
	SessionID uint64
	Kind      wire.QueryKind
	Param     string
	Anchor    Anchor
	Violated  bool
	Evaluated bool
	Detail    string
	Seq       uint64
	// FootprintSize is the number of distinct switches the invariant's
	// traversals consulted.
	FootprintSize int
}

// Stats is the engine's occupancy and activity counters.
type Stats struct {
	// Active/Violated count live invariants; PendingRestore counts those
	// restored from the store that no pass has re-verified yet.
	Active         int
	Violated       int
	PendingRestore int
	// IndexBuckets counts switches with an entry, IndexClasses the live
	// traversal classes across them, IndexEntries the
	// traversal-at-switch entries (an isolation invariant contributes one
	// per cone per switch the cone crosses).
	IndexBuckets int
	IndexClasses int
	IndexEntries int

	// Evaluated counts invariant evaluations run, the initial one at
	// registration included.
	Registered uint64
	Removed    uint64
	Restored   uint64
	Evaluated  uint64
	// IndexDispatched counts distinct invariants a pass dispatched;
	// DeltaSkipped counts, per dispatched switch, the invariants indexed
	// there that its delta did not dispatch; ClassTests counts the overlap
	// tests passes ran (one per class per dispatched switch).
	IndexDispatched uint64
	DeltaSkipped    uint64
	ClassTests      uint64
	// Violations/Recoveries count verdict transitions; IsoPointsSwept/
	// IsoPointsReused count isolation cone evaluations re-run versus served
	// from the cone cache.
	Violations      uint64
	Recoveries      uint64
	IsoPointsSwept  uint64
	IsoPointsReused uint64

	// Rechecks counts re-verification passes that found any active
	// subscription; Revalidated counts invariants carried through a pass
	// without re-evaluation.
	Rechecks    uint64
	Revalidated uint64
}

// ShardInfo is one shard's occupancy.
type ShardInfo struct {
	Shard        int
	Active       int
	Violated     int
	IndexBuckets int
	IndexClasses int
	IndexEntries int
}
