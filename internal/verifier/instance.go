package verifier

import (
	"bytes"
	"slices"
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

// member names one traversal of one subscription.
type member struct {
	sub *Subscription
	t   int
}

// class groups the traversals that presented the same thing at one switch —
// byte-equal slice terms and in-port set (headerspace.Visit.AppendKey) — so
// a pass tests a switch's delta against them once. Members are a slice:
// dispatch walks it, and a class of one (an invariant nobody shares a
// slice with) costs one element; removal scans the class.
type class struct {
	visit   headerspace.Visit
	members []member
}

// bucket is one switch's part of the index: its classes by key, and the
// number of distinct subscriptions with at least one traversal through the
// switch (what DeltaSkipped is counted against).
type bucket struct {
	classes    map[string]*class
	invariants int
}

// indexShard is one slice of the inverted footprint index. buckets[n]
// holds every traversal of a live subscription whose recorded footprint
// contains switch n, grouped by what it presented there.
type indexShard struct {
	mu      sync.Mutex
	buckets map[headerspace.NodeID]*bucket
}

// instanceCounters are the hot-path statistics, kept as atomics so
// parallel recheck workers never serialize on a stats mutex.
type instanceCounters struct {
	registered, removed, restored   atomic.Uint64
	evaluated                       atomic.Uint64
	indexDispatched, deltaSkipped   atomic.Uint64
	classTests                      atomic.Uint64
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
		ins.index[i].buckets = make(map[headerspace.NodeID]*bucket)
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

// indexAdd and indexRemove enter and withdraw one traversal at one switch,
// under the class its visit there names. first/last say whether the
// subscription has no other traversal through the switch, i.e. whether it
// arrives at or leaves the bucket as an invariant. Callers hold the
// subscription's shard mutex; index shard mutexes nest inside shard
// mutexes (never the other way around), so the lock order is acyclic.
func (ins *Instance) indexAdd(m member, n headerspace.NodeID, v headerspace.Visit, key []byte, first bool) {
	ish := ins.indexFor(n)
	ish.mu.Lock()
	defer ish.mu.Unlock()
	b := ish.buckets[n]
	if b == nil {
		b = &bucket{classes: make(map[string]*class)}
		ish.buckets[n] = b
	}
	cl := b.classes[string(key)]
	if cl == nil {
		cl = &class{visit: v}
		b.classes[string(key)] = cl
	}
	cl.members = append(cl.members, m)
	if first {
		b.invariants++
	}
}

func (ins *Instance) indexRemove(m member, n headerspace.NodeID, key []byte, last bool) {
	ish := ins.indexFor(n)
	ish.mu.Lock()
	defer ish.mu.Unlock()
	b := ish.buckets[n]
	if b == nil {
		return
	}
	if cl := b.classes[string(key)]; cl != nil {
		for i, o := range cl.members {
			if o == m {
				end := len(cl.members) - 1
				cl.members[i] = cl.members[end]
				cl.members[end] = member{} // drop the subscription pointer
				cl.members = cl.members[:end]
				break
			}
		}
		if len(cl.members) == 0 {
			delete(b.classes, string(key))
		}
	}
	if last {
		b.invariants--
	}
	if len(b.classes) == 0 {
		delete(ish.buckets, n)
	}
}

// visitsElsewhere reports whether a traversal of sub at index from or
// later, other than t, visits n.
func visitsElsewhere(sub *Subscription, t int, n headerspace.NodeID, from int) bool {
	for o := from; o < len(sub.Traversals); o++ {
		if o != t && sub.Traversals[o].Contains(n) {
			return true
		}
	}
	return false
}

// reindex replaces traversal t's footprint with next and moves its index
// entries to match: a switch it no longer visits loses the entry, one it
// newly visits gains one, and one it still visits keeps its entry untouched
// unless what it presents there changed class. Callers hold the
// subscription's shard mutex.
func (ins *Instance) reindex(sub *Subscription, t int, next headerspace.Footprint) {
	for len(sub.Traversals) <= t {
		sub.Traversals = append(sub.Traversals, headerspace.Footprint{})
	}
	prev := sub.Traversals[t]
	m := member{sub: sub, t: t}
	var prevBuf, nextBuf [128]byte
	next.Each(func(n headerspace.NodeID, nv headerspace.Visit) {
		nextKey := nv.AppendKey(nextBuf[:0])
		pv, stayed := prev.VisitAt(n)
		if !stayed {
			ins.indexAdd(m, n, nv, nextKey, !visitsElsewhere(sub, t, n, 0))
			return
		}
		if prevKey := pv.AppendKey(prevBuf[:0]); !bytes.Equal(prevKey, nextKey) {
			// Same switch, another class: enter the new one before
			// leaving the old, so the bucket is never emptied (and
			// dropped, with its invariant count) in between.
			ins.indexAdd(m, n, nv, nextKey, false)
			ins.indexRemove(m, n, prevKey, false)
		}
	})
	prev.Each(func(n headerspace.NodeID, pv headerspace.Visit) {
		if !next.Contains(n) {
			ins.indexRemove(m, n, pv.AppendKey(prevBuf[:0]), !visitsElsewhere(sub, t, n, 0))
		}
	})
	sub.Traversals[t] = next
}

// removeLocked unlinks one subscription from its shard map and the
// inverted index. Callers hold sh.mu (the shard owning sub).
func (ins *Instance) removeLocked(sh *subShard, sub *Subscription) {
	sub.Removed = true
	delete(sh.subs, sub.ID)
	var buf [128]byte
	for t, fp := range sub.Traversals {
		m := member{sub: sub, t: t}
		fp.Each(func(n headerspace.NodeID, v headerspace.Visit) {
			// The subscription leaves the bucket with the last of its
			// traversals through n, so the invariant count never runs
			// below the members a concurrent pass can still collect.
			ins.indexRemove(m, n, v.AppendKey(buf[:0]), !visitsElsewhere(sub, t, n, t+1))
		})
	}
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
	headerspace.PoolRun(len(subs), workers, func(i int) {
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
	var dirty map[*Subscription][]int
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
		dirty = ins.dispatch(p.Deltas)
		targets = make([]*Subscription, 0, len(dirty)+len(restored))
		for sub := range dirty {
			targets = append(targets, sub)
		}
		// Restored subscriptions have no footprint yet, so no class can
		// dispatch them — they join every pass until re-verified.
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
	headerspace.PoolRun(len(targets), workers, func(i int) {
		sub := targets[i]
		// A restored subscription's first evaluation is always a full
		// sweep: it has no footprint or cone state to be incremental
		// against.
		v := ins.env.Evaluate(net, sub, dirty[sub], p.Force || sub.NeedsFullEval, pooled)
		ins.commit(sub, v, snapID, true)
	})
	return len(targets)
}

// dispatch runs the deltas through the index: at each dispatched switch
// the delta is tested once per class, and the members of the classes it
// affects are collected. The result maps each affected subscription to its
// dirty traversal indexes, ascending. Callers hold runMu, so no commit
// moves an entry meanwhile; an unsubscribe may, and its subscription is
// then dropped at commit.
func (ins *Instance) dispatch(deltas map[headerspace.NodeID]headerspace.Delta) map[*Subscription][]int {
	dirty := make(map[*Subscription][]int)
	// hitAt[sub] is the last switch whose delta dispatched sub: switches
	// are walked one at a time, so comparing against it counts each
	// switch's distinct invariants without a per-switch set.
	hitAt := make(map[*Subscription]headerspace.NodeID)
	var tests, skipped uint64
	for n, d := range deltas {
		ish := ins.indexFor(n)
		ish.mu.Lock()
		if b := ish.buckets[n]; b != nil {
			hit := 0
			for _, cl := range b.classes {
				tests++
				if !cl.visit.AffectedBy(d) {
					continue
				}
				for _, m := range cl.members {
					if at, seen := hitAt[m.sub]; !seen || at != n {
						hitAt[m.sub] = n
						hit++
					}
					dirty[m.sub] = append(dirty[m.sub], m.t)
				}
			}
			skipped += uint64(b.invariants - hit)
		}
		ish.mu.Unlock()
	}
	for sub, ts := range dirty {
		if len(ts) > 1 { // a traversal hit at several switches appears once
			slices.Sort(ts)
			dirty[sub] = slices.Compact(ts)
		}
	}
	ins.stats.classTests.Add(tests)
	ins.stats.deltaSkipped.Add(skipped)
	ins.stats.indexDispatched.Add(uint64(len(dirty)))
	return dirty
}

// commit publishes one evaluation outcome: re-indexes the traversals the
// evaluation re-ran (and only those) and, on the first commit or a
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
	sub.Violated = v.Violated
	sub.Detail = v.Detail
	sub.Evaluated = true
	sub.NeedsFullEval = false
	for _, r := range v.Ran {
		ins.reindex(sub, r.Index, r.FP)
	}
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
		FootprintSize: footprintSize(sub),
		Instance:      ins.id,
	}
}

// footprintSize counts the distinct switches across the subscription's
// traversals: each switch once, at the last traversal that visits it.
func footprintSize(sub *Subscription) int {
	size := 0
	for t, fp := range sub.Traversals {
		fp.Each(func(n headerspace.NodeID, _ headerspace.Visit) {
			if !visitsElsewhere(sub, t, n, t+1) {
				size++
			}
		})
	}
	return size
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
		_, occupied := ish.buckets[n]
		ish.mu.Unlock()
		if occupied {
			return true
		}
	}
	return false
}

// indexGeometry is one index shard's occupancy.
type indexGeometry struct{ buckets, classes, entries int }

// geometry counts the shard's buckets, classes and traversal-at-switch
// entries. Callers hold ish.mu.
func (ish *indexShard) geometry() indexGeometry {
	g := indexGeometry{buckets: len(ish.buckets)}
	for _, b := range ish.buckets {
		g.classes += len(b.classes)
		for _, cl := range b.classes {
			g.entries += len(cl.members)
		}
	}
	return g
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
		ClassTests:      ins.stats.classTests.Load(),
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
		g := ish.geometry()
		st.IndexBuckets += g.buckets
		st.IndexClasses += g.classes
		st.IndexEntries += g.entries
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
		g := ish.geometry()
		out[i].IndexBuckets, out[i].IndexClasses, out[i].IndexEntries = g.buckets, g.classes, g.entries
		ish.mu.Unlock()
	}
	return out
}
