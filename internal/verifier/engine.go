package verifier

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/headerspace"
)

// maxSeenNoncesPerClient bounds the per-client replay window.
const maxSeenNoncesPerClient = 1024

type clientNonces struct {
	seen  map[uint64]struct{}
	order []uint64
}

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

// counters are the hot-path statistics, kept as atomics so parallel
// recheck workers never serialize on a stats mutex.
type counters struct {
	registered, removed, restored   atomic.Uint64
	evaluated                       atomic.Uint64
	indexDispatched, deltaSkipped   atomic.Uint64
	classTests                      atomic.Uint64
	violations, recoveries          atomic.Uint64
	isoPointsSwept, isoPointsReused atomic.Uint64
	rechecks, revalidated           atomic.Uint64
}

// Engine is the standing-invariant verifier: subscription identity (ids,
// replay nonces), the sharded subscription map, the inverted footprint
// index and the re-verification passes over them.
type Engine struct {
	env Env

	nextID atomic.Uint64

	nonceMu    sync.Mutex
	seenNonces map[uint64]*clientNonces

	// runMu serializes re-verification work (passes and registration-time
	// initial evaluations) so concurrent triggers cannot interleave
	// evaluations and double-report one transition. It also guards every
	// subscription's evaluation-only state (isolation cones).
	runMu  sync.Mutex
	shards [ShardCount]subShard
	index  [ShardCount]indexShard

	// restoreMu guards pendingRestore: subscriptions rebuilt from the
	// persistence store that have not been re-verified yet; the next pass
	// evaluates them from scratch regardless of the dirty set.
	restoreMu      sync.Mutex
	pendingRestore []*Subscription

	stats counters
}

// New builds the engine over a host Env.
func New(env Env) *Engine {
	e := &Engine{env: env, seenNonces: make(map[uint64]*clientNonces)}
	for i := range e.shards {
		e.shards[i].subs = make(map[uint64]*Subscription)
	}
	for i := range e.index {
		e.index[i].buckets = make(map[headerspace.NodeID]*bucket)
	}
	return e
}

func (e *Engine) shardFor(id uint64) *subShard {
	return &e.shards[id&(ShardCount-1)]
}

func (e *Engine) indexFor(n headerspace.NodeID) *indexShard {
	return &e.index[uint32(n)&(ShardCount-1)]
}

// RecordNonce registers a client's operation nonce, reporting false on
// replay.
func (e *Engine) RecordNonce(clientID, nonce uint64) bool {
	if nonce == 0 {
		return true
	}
	e.nonceMu.Lock()
	defer e.nonceMu.Unlock()
	cn := e.seenNonces[clientID]
	if cn == nil {
		cn = &clientNonces{seen: make(map[uint64]struct{})}
		e.seenNonces[clientID] = cn
	}
	if _, dup := cn.seen[nonce]; dup {
		return false
	}
	cn.seen[nonce] = struct{}{}
	cn.order = append(cn.order, nonce)
	if len(cn.order) > maxSeenNoncesPerClient {
		old := cn.order[0]
		cn.order = cn.order[1:]
		delete(cn.seen, old)
	}
	return true
}

// EnsureNextID raises the id allocator to at least maxID (persistence
// restore, so fresh registrations never collide with restored ids).
func (e *Engine) EnsureNextID(maxID uint64) {
	for {
		cur := e.nextID.Load()
		if cur >= maxID {
			return
		}
		if e.nextID.CompareAndSwap(cur, maxID) {
			return
		}
	}
}

// indexAdd and indexRemove enter and withdraw one traversal at one switch,
// under the class its visit there names. first/last say whether the
// subscription has no other traversal through the switch, i.e. whether it
// arrives at or leaves the bucket as an invariant. Callers hold the
// subscription's shard mutex; index shard mutexes nest inside shard
// mutexes (never the other way around), so the lock order is acyclic.
func (e *Engine) indexAdd(m member, n headerspace.NodeID, v headerspace.Visit, key []byte, first bool) {
	ish := e.indexFor(n)
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

func (e *Engine) indexRemove(m member, n headerspace.NodeID, key []byte, last bool) {
	ish := e.indexFor(n)
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
func (e *Engine) reindex(sub *Subscription, t int, next headerspace.Footprint) {
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
			e.indexAdd(m, n, nv, nextKey, !visitsElsewhere(sub, t, n, 0))
			return
		}
		if prevKey := pv.AppendKey(prevBuf[:0]); !bytes.Equal(prevKey, nextKey) {
			// Same switch, another class: enter the new one before
			// leaving the old, so the bucket is never emptied (and
			// dropped, with its invariant count) in between.
			e.indexAdd(m, n, nv, nextKey, false)
			e.indexRemove(m, n, prevKey, false)
		}
	})
	prev.Each(func(n headerspace.NodeID, pv headerspace.Visit) {
		if !next.Contains(n) {
			e.indexRemove(m, n, pv.AppendKey(prevBuf[:0]), !visitsElsewhere(sub, t, n, 0))
		}
	})
	sub.Traversals[t] = next
}

// removeLocked unlinks one subscription from its shard map and the
// inverted index. Callers hold sh.mu (the shard owning sub).
func (e *Engine) removeLocked(sh *subShard, sub *Subscription) {
	sub.Removed = true
	delete(sh.subs, sub.ID)
	var buf [128]byte
	for t, fp := range sub.Traversals {
		m := member{sub: sub, t: t}
		fp.Each(func(n headerspace.NodeID, v headerspace.Visit) {
			// The subscription leaves the bucket with the last of its
			// traversals through n, so the invariant count never runs
			// below the members a concurrent pass can still collect.
			e.indexRemove(m, n, v.AppendKey(buf[:0]), !visitsElsewhere(sub, t, n, t+1))
		})
	}
	e.stats.removed.Add(1)
}

// activeCount sums the shard sizes.
func (e *Engine) activeCount() uint64 {
	var n uint64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += uint64(len(sh.subs))
		sh.mu.Unlock()
	}
	return n
}

// Register assigns an id to one subscription, registers it and runs its
// initial evaluation.
func (e *Engine) Register(sub *Subscription, ec EvalContext) {
	e.RegisterBatch([]*Subscription{sub}, ec)
}

// RegisterBatch assigns ids in order, inserts the subscriptions and runs
// their initial evaluations under one run-lock acquisition, fanned across
// the worker pool. Initial verdicts are not pushed (Transition.Notify is
// false): the caller's ack or batch reply carries them, mirroring the
// single-subscribe ack semantics.
func (e *Engine) RegisterBatch(subs []*Subscription, ec EvalContext) {
	if len(subs) == 0 {
		return
	}
	for _, sub := range subs {
		sub.ID = e.nextID.Add(1)
		sh := e.shardFor(sub.ID)
		sh.mu.Lock()
		sh.subs[sub.ID] = sub
		sh.mu.Unlock()
		e.stats.registered.Add(1)
	}

	// Initial evaluation, serialized with re-verification passes so the
	// first verdict cannot race a concurrent recheck of the same
	// subscription.
	e.runMu.Lock()
	defer e.runMu.Unlock()
	net, snapID := ec.Build()
	workers := ec.Workers
	if workers > len(subs) {
		workers = len(subs)
	}
	pooled := workers > 1 && len(subs) > 1
	headerspace.PoolRun(len(subs), workers, func(i int) {
		sub := subs[i]
		v := e.env.Evaluate(net, sub, nil, true, pooled)
		e.commit(sub, v, snapID, false)
	})
}

// Restore re-inserts a subscription rebuilt from the persistence store (id
// already assigned; the caller must EnsureNextID): its verdict state is
// already durable, its footprint is not, so it joins every pass
// (pendingRestore + NeedsFullEval) until re-verified.
func (e *Engine) Restore(sub *Subscription) {
	sh := e.shardFor(sub.ID)
	sh.mu.Lock()
	sh.subs[sub.ID] = sub
	sh.mu.Unlock()
	e.restoreMu.Lock()
	e.pendingRestore = append(e.pendingRestore, sub)
	e.restoreMu.Unlock()
	e.stats.restored.Add(1)
}

// HasPendingRestore reports whether restored subscriptions still await
// their first re-verification.
func (e *Engine) HasPendingRestore() bool {
	e.restoreMu.Lock()
	defer e.restoreMu.Unlock()
	return len(e.pendingRestore) > 0
}

func (e *Engine) drainRestore() []*Subscription {
	e.restoreMu.Lock()
	defer e.restoreMu.Unlock()
	restored := e.pendingRestore
	e.pendingRestore = nil
	return restored
}

// Unsubscribe removes a standing invariant; it reports whether the id was
// registered to the given client.
func (e *Engine) Unsubscribe(clientID, id uint64) bool {
	sh := e.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sub, ok := sh.subs[id]
	if !ok || sub.ClientID != clientID {
		return false
	}
	e.removeLocked(sh, sub)
	return true
}

// UnsubscribeByNonce removes a client's subscription by its registration
// nonce — the cleanup path for a client whose subscribe ack was lost and
// who therefore never learned the SubID.
func (e *Engine) UnsubscribeByNonce(clientID, nonce uint64) (uint64, bool) {
	if nonce == 0 {
		return 0, false
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for id, sub := range sh.subs {
			if sub.ClientID == clientID && sub.Nonce == nonce {
				e.removeLocked(sh, sub)
				sh.mu.Unlock()
				return id, true
			}
		}
		sh.mu.Unlock()
	}
	return 0, false
}

// Run runs one re-verification pass and returns the number of invariants
// evaluated. A Force pass evaluates every invariant from scratch; an
// indexed pass evaluates the traversals the deltas dispatch through the
// index, plus every restored subscription not yet re-verified. A pass
// counts as a recheck when any subscription is active, and every active
// invariant it did not evaluate counts as revalidated for free.
func (e *Engine) Run(p Pass) int {
	active := e.activeCount()
	if active == 0 && !e.HasPendingRestore() {
		return 0
	}
	e.stats.rechecks.Add(1)
	evaluated := e.run(p)
	if active > uint64(evaluated) {
		e.stats.revalidated.Add(active - uint64(evaluated))
	}
	return evaluated
}

func (e *Engine) run(p Pass) int {
	e.runMu.Lock()
	defer e.runMu.Unlock()

	restored := e.drainRestore()

	var targets []*Subscription
	var dirty map[*Subscription][]int
	if p.Force {
		// Full enumeration, footprints ignored: the exhaustive reference.
		// Restored subscriptions are already in the shards, so the
		// enumeration covers them.
		for i := range e.shards {
			sh := &e.shards[i]
			sh.mu.Lock()
			for _, sub := range sh.subs {
				targets = append(targets, sub)
			}
			sh.mu.Unlock()
		}
	} else {
		dirty = e.dispatch(p.Deltas)
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
		v := e.env.Evaluate(net, sub, dirty[sub], p.Force || sub.NeedsFullEval, pooled)
		e.commit(sub, v, snapID, true)
	})
	return len(targets)
}

// dispatch runs the deltas through the index: at each dispatched switch
// the delta is tested once per class, and the members of the classes it
// affects are collected. The result maps each affected subscription to its
// dirty traversal indexes, ascending. Callers hold runMu, so no commit
// moves an entry meanwhile; an unsubscribe may, and its subscription is
// then dropped at commit.
func (e *Engine) dispatch(deltas map[headerspace.NodeID]headerspace.Delta) map[*Subscription][]int {
	dirty := make(map[*Subscription][]int)
	// hitAt[sub] is the last switch whose delta dispatched sub: switches
	// are walked one at a time, so comparing against it counts each
	// switch's distinct invariants without a per-switch set.
	hitAt := make(map[*Subscription]headerspace.NodeID)
	var tests, skipped uint64
	for n, d := range deltas {
		ish := e.indexFor(n)
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
	e.stats.classTests.Add(tests)
	e.stats.deltaSkipped.Add(skipped)
	e.stats.indexDispatched.Add(uint64(len(dirty)))
	return dirty
}

// commit publishes one evaluation outcome: re-indexes the traversals the
// evaluation re-ran (and only those) and, on the first commit or a
// verdict transition, hands a Transition to the host Env outside every
// engine lock (persistence, violation log, notification delivery happen
// there). Callers hold the run lock; the shard mutex makes the
// publication atomic against concurrent register/unsubscribe on other
// subscriptions of the same shard.
func (e *Engine) commit(sub *Subscription, v Verdict, snapID uint64, notify bool) {
	sh := e.shardFor(sub.ID)
	sh.mu.Lock()
	if sub.Removed {
		// Unsubscribed while the evaluation ran: the index entries are
		// gone; publishing (or re-indexing) would resurrect a dead
		// invariant.
		sh.mu.Unlock()
		return
	}
	e.stats.evaluated.Add(1)
	e.stats.isoPointsSwept.Add(v.IsoPointsSwept)
	e.stats.isoPointsReused.Add(v.IsoPointsReused)
	prevViolated, prevEvaluated := sub.Violated, sub.Evaluated
	sub.Violated = v.Violated
	sub.Detail = v.Detail
	sub.Evaluated = true
	sub.NeedsFullEval = false
	for _, r := range v.Ran {
		e.reindex(sub, r.Index, r.FP)
	}
	changed := (prevEvaluated && prevViolated != v.Violated) || (!prevEvaluated && v.Violated)
	if changed {
		sub.Seq++
		if v.Violated {
			e.stats.violations.Add(1)
		} else {
			e.stats.recoveries.Add(1)
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
		e.env.Commit(t)
	}
}

// stateOfLocked snapshots one subscription; callers hold its shard mutex.
func stateOfLocked(sub *Subscription) SubState {
	return SubState{
		ID:            sub.ID,
		ClientID:      sub.ClientID,
		SessionID:     sub.SessionID,
		Kind:          sub.Kind,
		Param:         sub.Param,
		Anchor:        sub.Anchor,
		Violated:      sub.Violated,
		Evaluated:     sub.Evaluated,
		Detail:        sub.Detail,
		Seq:           sub.Seq,
		FootprintSize: footprintSize(sub),
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
func (e *Engine) View(id uint64) (SubState, bool) {
	sh := e.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sub, ok := sh.subs[id]
	if !ok {
		return SubState{}, false
	}
	return stateOfLocked(sub), true
}

// List snapshots every standing invariant, sorted by id.
func (e *Engine) List() []SubState {
	return e.collect(func(*Subscription) bool { return true })
}

// ResumeSlice snapshots the subscriptions of one client session, sorted
// by id.
func (e *Engine) ResumeSlice(clientID, sessionID uint64) []SubState {
	return e.collect(func(sub *Subscription) bool {
		return sub.ClientID == clientID && sub.SessionID == sessionID
	})
}

// collect snapshots the subscriptions keep selects, sorted by id.
func (e *Engine) collect(keep func(*Subscription) bool) []SubState {
	var out []SubState
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, sub := range sh.subs {
			if keep(sub) {
				out = append(out, stateOfLocked(sub))
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
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

// Stats returns the engine's counters and occupancy.
func (e *Engine) Stats() Stats {
	st := Stats{
		Registered:      e.stats.registered.Load(),
		Removed:         e.stats.removed.Load(),
		Restored:        e.stats.restored.Load(),
		Evaluated:       e.stats.evaluated.Load(),
		IndexDispatched: e.stats.indexDispatched.Load(),
		DeltaSkipped:    e.stats.deltaSkipped.Load(),
		ClassTests:      e.stats.classTests.Load(),
		Violations:      e.stats.violations.Load(),
		Recoveries:      e.stats.recoveries.Load(),
		IsoPointsSwept:  e.stats.isoPointsSwept.Load(),
		IsoPointsReused: e.stats.isoPointsReused.Load(),
		Rechecks:        e.stats.rechecks.Load(),
		Revalidated:     e.stats.revalidated.Load(),
	}
	for _, sh := range e.ShardStats() {
		st.Active += sh.Active
		st.Violated += sh.Violated
		st.IndexBuckets += sh.IndexBuckets
		st.IndexClasses += sh.IndexClasses
		st.IndexEntries += sh.IndexEntries
	}
	e.restoreMu.Lock()
	st.PendingRestore = len(e.pendingRestore)
	e.restoreMu.Unlock()
	return st
}

// ShardStats returns per-shard occupancy (subscription shards zipped with
// the same-numbered index shard).
func (e *Engine) ShardStats() []ShardInfo {
	out := make([]ShardInfo, ShardCount)
	for i := range e.shards {
		sh := &e.shards[i]
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
	for i := range e.index {
		ish := &e.index[i]
		ish.mu.Lock()
		g := ish.geometry()
		out[i].IndexBuckets, out[i].IndexClasses, out[i].IndexEntries = g.buckets, g.classes, g.entries
		ish.mu.Unlock()
	}
	return out
}

// CheckConsistency verifies the inverted index against the live
// subscriptions: every traversal's every visited switch has one entry, in
// the class its visit there names; no entry is dead, stale or duplicated;
// no class or bucket is empty; each bucket's invariant count is the number
// of distinct subscriptions in it. Test/debug surface: call it with no
// pass, registration or unsubscription in flight.
func (e *Engine) CheckConsistency() error {
	live := make(map[uint64]*Subscription)
	for si := range e.shards {
		sh := &e.shards[si]
		sh.mu.Lock()
		for id, sub := range sh.subs {
			live[id] = sub
		}
		sh.mu.Unlock()
	}
	type entry struct {
		m member
		n headerspace.NodeID
	}
	indexed := make(map[entry]bool)
	for si := range e.index {
		ish := &e.index[si]
		ish.mu.Lock()
		err := func() error {
			for n, b := range ish.buckets {
				if len(b.classes) == 0 {
					return fmt.Errorf("verifier: index bucket %d is empty", n)
				}
				subs := make(map[*Subscription]bool)
				for key, cl := range b.classes {
					if len(cl.members) == 0 {
						return fmt.Errorf("verifier: index bucket %d holds an empty class", n)
					}
					if string(cl.visit.AppendKey(nil)) != key {
						return fmt.Errorf("verifier: index bucket %d class tests a visit its key does not name", n)
					}
					for _, m := range cl.members {
						if live[m.sub.ID] != m.sub {
							return fmt.Errorf("verifier: index bucket %d holds dead sub %d", n, m.sub.ID)
						}
						if m.t >= len(m.sub.Traversals) {
							return fmt.Errorf("verifier: index bucket %d holds traversal %d of sub %d, which has %d", n, m.t, m.sub.ID, len(m.sub.Traversals))
						}
						v, ok := m.sub.Traversals[m.t].VisitAt(n)
						if !ok {
							return fmt.Errorf("verifier: index bucket %d holds sub %d traversal %d whose footprint lacks it", n, m.sub.ID, m.t)
						}
						if string(v.AppendKey(nil)) != key {
							return fmt.Errorf("verifier: index bucket %d holds sub %d traversal %d in a class its visit does not name", n, m.sub.ID, m.t)
						}
						if indexed[entry{m, n}] {
							return fmt.Errorf("verifier: index bucket %d holds sub %d traversal %d twice", n, m.sub.ID, m.t)
						}
						indexed[entry{m, n}] = true
						subs[m.sub] = true
					}
				}
				if b.invariants != len(subs) {
					return fmt.Errorf("verifier: index bucket %d counts %d invariants, holds %d", n, b.invariants, len(subs))
				}
			}
			return nil
		}()
		ish.mu.Unlock()
		if err != nil {
			return err
		}
	}
	for id, sub := range live {
		for t, fp := range sub.Traversals {
			for _, n := range fp.Nodes() {
				if !indexed[entry{member{sub, t}, n}] {
					return fmt.Errorf("verifier: sub %d traversal %d footprint node %d missing from index", id, t, n)
				}
			}
		}
	}
	return nil
}
