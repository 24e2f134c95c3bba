package verifier

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/headerspace"
)

// subShard is one slice of the subscription map.
type subShard struct {
	mu   sync.Mutex
	subs map[uint64]*Subscription
}

// indexShard is one slice of the inverted footprint index. buckets[n]
// holds every live subscription whose recorded footprint contains switch
// n.
type indexShard struct {
	mu      sync.Mutex
	buckets map[headerspace.NodeID]map[uint64]*Subscription
}

// instanceCounters are the hot-path statistics, kept as atomics so
// parallel recheck workers never serialize on a stats mutex.
type instanceCounters struct {
	registered, removed, restored   atomic.Uint64
	evaluated                       atomic.Uint64
	indexDispatched, deltaSkipped   atomic.Uint64
	violations, recoveries          atomic.Uint64
	isoPointsSwept, isoPointsReused atomic.Uint64
}

// Instance is one verifier: the sharded subscription engine previously
// embedded in the controller.
type Instance struct {
	id  int
	env Env

	// runMu serializes this instance's re-verification work (passes and
	// registration-time initial evaluations) so concurrent triggers
	// cannot interleave evaluations and double-report one transition. It
	// also guards every owned subscription's evaluation-only state
	// (isolation cones).
	runMu  sync.Mutex
	shards [ShardCount]subShard
	index  [ShardCount]indexShard

	// restoreMu guards pendingRestore: subscriptions rebuilt from the
	// persistence store that have not been re-verified yet; the next pass
	// evaluates them from scratch regardless of the dirty set.
	restoreMu      sync.Mutex
	pendingRestore []*Subscription

	stats instanceCounters
}

// NewInstance builds one engine instance. Most callers want New.
func NewInstance(id int, env Env) *Instance {
	ins := &Instance{id: id, env: env}
	for i := range ins.shards {
		ins.shards[i].subs = make(map[uint64]*Subscription)
	}
	for i := range ins.index {
		ins.index[i].buckets = make(map[headerspace.NodeID]map[uint64]*Subscription)
	}
	return ins
}

// ID returns the instance's fleet position.
func (ins *Instance) ID() int { return ins.id }

func (ins *Instance) shardFor(id uint64) *subShard {
	return &ins.shards[id&(ShardCount-1)]
}

func (ins *Instance) indexFor(n headerspace.NodeID) *indexShard {
	return &ins.index[uint32(n)&(ShardCount-1)]
}

// indexAdd/indexRemove maintain the inverted footprint index. Callers
// hold the subscription's shard mutex; index shard mutexes nest inside
// shard mutexes (never the other way around), so the lock order is
// acyclic.
func (ins *Instance) indexAdd(sub *Subscription, nodes []headerspace.NodeID) {
	for _, n := range nodes {
		ish := ins.indexFor(n)
		ish.mu.Lock()
		bucket := ish.buckets[n]
		if bucket == nil {
			bucket = make(map[uint64]*Subscription)
			ish.buckets[n] = bucket
		}
		bucket[sub.ID] = sub
		ish.mu.Unlock()
	}
}

func (ins *Instance) indexRemove(sub *Subscription, nodes []headerspace.NodeID) {
	for _, n := range nodes {
		ish := ins.indexFor(n)
		ish.mu.Lock()
		if bucket := ish.buckets[n]; bucket != nil {
			delete(bucket, sub.ID)
			if len(bucket) == 0 {
				delete(ish.buckets, n)
			}
		}
		ish.mu.Unlock()
	}
}

// removeLocked unlinks one subscription from its shard map and the
// inverted index. Callers hold sh.mu (the shard owning sub).
func (ins *Instance) removeLocked(sh *subShard, sub *Subscription) {
	sub.Removed = true
	delete(sh.subs, sub.ID)
	ins.indexRemove(sub, sub.FP.Nodes())
	ins.stats.removed.Add(1)
}

// activeCount sums the shard sizes.
func (ins *Instance) activeCount() uint64 {
	var n uint64
	for i := range ins.shards {
		sh := &ins.shards[i]
		sh.mu.Lock()
		n += uint64(len(sh.subs))
		sh.mu.Unlock()
	}
	return n
}

// RegisterBatch inserts the subscriptions (ids already assigned) and runs
// their initial evaluations under one run-lock acquisition, fanned across
// the worker pool. Initial verdicts are not pushed (Transition.Notify is
// false): the caller's ack or batch reply carries them, mirroring the
// single-subscribe ack semantics.
func (ins *Instance) RegisterBatch(subs []*Subscription, ec EvalContext) {
	if len(subs) == 0 {
		return
	}
	for _, sub := range subs {
		sh := ins.shardFor(sub.ID)
		sh.mu.Lock()
		sh.subs[sub.ID] = sub
		sh.mu.Unlock()
		ins.stats.registered.Add(1)
	}

	// Initial evaluation, serialized with re-verification passes so the
	// first verdict cannot race a concurrent recheck of the same
	// subscription.
	ins.runMu.Lock()
	defer ins.runMu.Unlock()
	net, snapID := ec.Build()
	workers := ec.Workers
	if workers > len(subs) {
		workers = len(subs)
	}
	pooled := workers > 1 && len(subs) > 1
	poolRun(len(subs), workers, func(i int) {
		sub := subs[i]
		v := ins.env.Evaluate(net, sub, nil, true, pooled)
		ins.commit(sub, v, snapID, false)
	})
}

// Restore inserts a subscription rebuilt from the persistence store: its
// verdict state is already durable, its footprint is not, so it joins
// every pass (pendingRestore + NeedsFullEval) until re-verified.
func (ins *Instance) Restore(sub *Subscription) {
	sh := ins.shardFor(sub.ID)
	sh.mu.Lock()
	sh.subs[sub.ID] = sub
	sh.mu.Unlock()
	ins.restoreMu.Lock()
	ins.pendingRestore = append(ins.pendingRestore, sub)
	ins.restoreMu.Unlock()
	ins.stats.restored.Add(1)
}

// HasPendingRestore reports whether restored subscriptions still await
// their first re-verification.
func (ins *Instance) HasPendingRestore() bool {
	ins.restoreMu.Lock()
	defer ins.restoreMu.Unlock()
	return len(ins.pendingRestore) > 0
}

func (ins *Instance) drainRestore() []*Subscription {
	ins.restoreMu.Lock()
	defer ins.restoreMu.Unlock()
	restored := ins.pendingRestore
	ins.pendingRestore = nil
	return restored
}

// Unsubscribe removes a standing invariant; it reports whether the id was
// registered here to the given client.
func (ins *Instance) Unsubscribe(clientID, id uint64) bool {
	sh := ins.shardFor(id)
	sh.mu.Lock()
	sub, ok := sh.subs[id]
	if !ok || sub.ClientID != clientID {
		sh.mu.Unlock()
		return false
	}
	ins.removeLocked(sh, sub)
	sh.mu.Unlock()
	return true
}

// UnsubscribeByNonce removes a client's subscription by its registration
// nonce — the cleanup path for a client whose subscribe ack was lost and
// who therefore never learned the SubID.
func (ins *Instance) UnsubscribeByNonce(clientID, nonce uint64) (uint64, bool) {
	if nonce == 0 {
		return 0, false
	}
	for i := range ins.shards {
		sh := &ins.shards[i]
		sh.mu.Lock()
		for id, sub := range sh.subs {
			if sub.ClientID == clientID && sub.Nonce == nonce {
				ins.removeLocked(sh, sub)
				sh.mu.Unlock()
				return id, true
			}
		}
		sh.mu.Unlock()
	}
	return 0, false
}

// ApplyDeltas runs one re-verification pass over this instance's
// subscriptions, returning the number of invariants evaluated. Pass-level
// accounting (rechecks, revalidated-for-free) lives in the fleet, which
// sees every instance.
func (ins *Instance) ApplyDeltas(p Pass) int {
	ins.runMu.Lock()
	defer ins.runMu.Unlock()

	restored := ins.drainRestore()

	var targets []*Subscription
	if p.Force {
		// Full enumeration, footprints ignored: the exhaustive reference.
		// Restored subscriptions are already in the shards, so the
		// enumeration covers them.
		for i := range ins.shards {
			sh := &ins.shards[i]
			sh.mu.Lock()
			for _, sub := range sh.subs {
				targets = append(targets, sub)
			}
			sh.mu.Unlock()
		}
	} else {
		// Indexed dirty dispatch: the union of the delta switches' buckets
		// is the set of invariants whose footprint was touched; the
		// rule-delta overlap filter then discards the ones whose recorded
		// traversal slice (and arrival ports) miss every delta.
		seen := make(map[uint64]*Subscription)
		for n := range p.Deltas {
			ish := ins.indexFor(n)
			ish.mu.Lock()
			for id, sub := range ish.buckets[n] {
				seen[id] = sub
			}
			ish.mu.Unlock()
		}
		targets = make([]*Subscription, 0, len(seen))
		for _, sub := range seen {
			// sub.FP is written only under runMu (commit), which we hold:
			// the read is race-free.
			if sub.FP.InvalidatedBy(p.Deltas) {
				targets = append(targets, sub)
			} else {
				ins.stats.deltaSkipped.Add(1)
			}
		}
		ins.stats.indexDispatched.Add(uint64(len(targets)))
		// Restored subscriptions have no footprint yet, so no index
		// bucket can dispatch them — they join every pass until
		// re-verified.
		targets = append(targets, restored...)
	}
	if len(targets) == 0 {
		return 0
	}

	net, snapID := p.Build()
	workers := p.Workers
	if workers > len(targets) {
		workers = len(targets)
	}
	pooled := workers > 1
	poolRun(len(targets), workers, func(i int) {
		sub := targets[i]
		// A restored subscription's first evaluation is always a full
		// sweep: it has no footprint or cone state to be incremental
		// against.
		v := ins.env.Evaluate(net, sub, p.Deltas, p.Force || sub.NeedsFullEval, pooled)
		ins.commit(sub, v, snapID, true)
	})
	return len(targets)
}

// commit publishes one evaluation outcome: re-syncs the inverted
// footprint index with the new footprint and, on the first commit or a
// verdict transition, hands a Transition to the host Env outside every
// engine lock (persistence, violation log, notification delivery happen
// there). Callers hold the instance's run lock; the shard mutex makes the
// publication atomic against concurrent register/unsubscribe on other
// subscriptions of the same shard.
func (ins *Instance) commit(sub *Subscription, v Verdict, snapID uint64, notify bool) {
	sh := ins.shardFor(sub.ID)
	sh.mu.Lock()
	if sub.Removed {
		// Unsubscribed while the evaluation ran: the index entries are
		// gone; publishing (or re-indexing) would resurrect a dead
		// invariant.
		sh.mu.Unlock()
		return
	}
	ins.stats.evaluated.Add(1)
	ins.stats.isoPointsSwept.Add(v.IsoPointsSwept)
	ins.stats.isoPointsReused.Add(v.IsoPointsReused)
	prevViolated, prevEvaluated := sub.Violated, sub.Evaluated
	added, removed := headerspace.DiffFootprints(sub.FP, v.FP)
	sub.Violated = v.Violated
	sub.Detail = v.Detail
	sub.FP = v.FP
	sub.Evaluated = true
	sub.NeedsFullEval = false
	ins.indexAdd(sub, added)
	ins.indexRemove(sub, removed)
	changed := (prevEvaluated && prevViolated != v.Violated) || (!prevEvaluated && v.Violated)
	if changed {
		sub.Seq++
		if v.Violated {
			ins.stats.violations.Add(1)
		} else {
			ins.stats.recoveries.Add(1)
		}
	}
	t := Transition{
		Sub:        sub,
		Violated:   v.Violated,
		Detail:     v.Detail,
		Seq:        sub.Seq,
		SnapshotID: snapID,
		Changed:    changed,
		First:      !prevEvaluated,
		Notify:     notify,
	}
	sh.mu.Unlock()
	if t.First || t.Changed {
		ins.env.Commit(t)
	}
}

// stateOfLocked snapshots one subscription; callers hold its shard mutex.
func (ins *Instance) stateOfLocked(sub *Subscription) SubState {
	return SubState{
		ID:            sub.ID,
		ClientID:      sub.ClientID,
		SessionID:     sub.SessionID,
		Nonce:         sub.Nonce,
		Kind:          sub.Kind,
		Param:         sub.Param,
		Anchor:        sub.Anchor,
		Violated:      sub.Violated,
		Evaluated:     sub.Evaluated,
		Detail:        sub.Detail,
		Seq:           sub.Seq,
		FootprintSize: sub.FP.Len(),
		Instance:      ins.id,
	}
}

// View snapshots one subscription by id.
func (ins *Instance) View(id uint64) (SubState, bool) {
	sh := ins.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sub, ok := sh.subs[id]
	if !ok {
		return SubState{}, false
	}
	return ins.stateOfLocked(sub), true
}

// List snapshots every subscription owned by the instance (unsorted; the
// fleet sorts the merged view).
func (ins *Instance) List() []SubState {
	var out []SubState
	for i := range ins.shards {
		sh := &ins.shards[i]
		sh.mu.Lock()
		for _, sub := range sh.subs {
			out = append(out, ins.stateOfLocked(sub))
		}
		sh.mu.Unlock()
	}
	return out
}

// ResumeSlice snapshots the instance's subscriptions of one client
// session, sorted by id.
func (ins *Instance) ResumeSlice(clientID, sessionID uint64) []SubState {
	var out []SubState
	for i := range ins.shards {
		sh := &ins.shards[i]
		sh.mu.Lock()
		for _, sub := range sh.subs {
			if sub.ClientID == clientID && sub.SessionID == sessionID {
				out = append(out, ins.stateOfLocked(sub))
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// OwnsAny reports whether any dispatch node has a non-empty index bucket
// here — the fleet's per-pass instance selection.
func (ins *Instance) OwnsAny(deltas map[headerspace.NodeID]headerspace.Delta) bool {
	for n := range deltas {
		ish := ins.indexFor(n)
		ish.mu.Lock()
		occupied := len(ish.buckets[n]) > 0
		ish.mu.Unlock()
		if occupied {
			return true
		}
	}
	return false
}

// Stats returns the instance's counters.
func (ins *Instance) Stats() InstanceStats {
	st := InstanceStats{
		Instance:        ins.id,
		Registered:      ins.stats.registered.Load(),
		Removed:         ins.stats.removed.Load(),
		Restored:        ins.stats.restored.Load(),
		Evaluated:       ins.stats.evaluated.Load(),
		IndexDispatched: ins.stats.indexDispatched.Load(),
		DeltaSkipped:    ins.stats.deltaSkipped.Load(),
		Violations:      ins.stats.violations.Load(),
		Recoveries:      ins.stats.recoveries.Load(),
		IsoPointsSwept:  ins.stats.isoPointsSwept.Load(),
		IsoPointsReused: ins.stats.isoPointsReused.Load(),
	}
	for i := range ins.shards {
		sh := &ins.shards[i]
		sh.mu.Lock()
		st.Active += len(sh.subs)
		for _, sub := range sh.subs {
			if sub.Violated {
				st.Violated++
			}
		}
		sh.mu.Unlock()
	}
	for i := range ins.index {
		ish := &ins.index[i]
		ish.mu.Lock()
		st.IndexBuckets += len(ish.buckets)
		for _, bucket := range ish.buckets {
			st.IndexEntries += len(bucket)
		}
		ish.mu.Unlock()
	}
	ins.restoreMu.Lock()
	st.PendingRestore = len(ins.pendingRestore)
	ins.restoreMu.Unlock()
	return st
}

// ShardStats returns per-shard occupancy (subscription shards zipped with
// the same-numbered index shard).
func (ins *Instance) ShardStats() []ShardInfo {
	out := make([]ShardInfo, ShardCount)
	for i := range ins.shards {
		sh := &ins.shards[i]
		sh.mu.Lock()
		out[i].Shard = i
		out[i].Active = len(sh.subs)
		for _, sub := range sh.subs {
			if sub.Violated {
				out[i].Violated++
			}
		}
		sh.mu.Unlock()
	}
	for i := range ins.index {
		ish := &ins.index[i]
		ish.mu.Lock()
		out[i].IndexBuckets = len(ish.buckets)
		for _, bucket := range ish.buckets {
			out[i].IndexEntries += len(bucket)
		}
		ish.mu.Unlock()
	}
	return out
}
