package verifier

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/headerspace"
	"repro/internal/wire"
)

// Config parameterizes a fleet.
type Config struct {
	// Instances is the verifier count (<=0 selects 1).
	Instances int
}

// maxSeenNoncesPerClient bounds the per-client replay window, matching
// the single-engine limit.
const maxSeenNoncesPerClient = 1024

type clientNonces struct {
	seen  map[uint64]struct{}
	order []uint64
}

// Fleet routes standing invariants across N verifier instances. Global
// identity — subscription ids, replay nonces, id → instance ownership —
// lives here; per-invariant verification state lives in the owning
// instance. With Instances=1 the fleet adds no partitioning and its
// counters match the pre-extraction engine's.
type Fleet struct {
	env       Env
	instances []*Instance

	nextID atomic.Uint64

	nonceMu    sync.Mutex
	seenNonces map[uint64]*clientNonces

	ownerMu sync.RWMutex
	owner   map[uint64]int

	// Pass-level accounting. The pre-fleet engine counted a recheck pass
	// (and credited revalidated-for-free) whenever any subscription was
	// active, even if no index bucket matched — only the fleet sees every
	// instance, so the parity-critical counters live here.
	rechecks           atomic.Uint64
	revalidated        atomic.Uint64
	passes             atomic.Uint64
	instanceDispatches atomic.Uint64
}

// New builds a fleet of cfg.Instances verifier instances sharing one host
// Env.
func New(cfg Config, env Env) *Fleet {
	n := cfg.Instances
	if n <= 0 {
		n = 1
	}
	f := &Fleet{
		env:        env,
		seenNonces: make(map[uint64]*clientNonces),
		owner:      make(map[uint64]int),
	}
	for i := 0; i < n; i++ {
		f.instances = append(f.instances, NewInstance(i, env))
	}
	return f
}

// Size returns the instance count.
func (f *Fleet) Size() int { return len(f.instances) }

// Instance returns instance i (for tests and the differential harness).
func (f *Fleet) Instance(i int) *Instance { return f.instances[i] }

// mix64 is the splitmix64 finalizer: the avalanche step of the rendezvous
// hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// rendezvous picks argmax over instances of H(key, instance) — highest
// random weight, so adding an instance moves only the keys it wins.
func (f *Fleet) rendezvous(key uint64) int {
	best, bestW := 0, uint64(0)
	for i := range f.instances {
		w := mix64(key ^ mix64(uint64(i)*0x9E3779B97F4A7C15+1))
		if i == 0 || w > bestW {
			best, bestW = i, w
		}
	}
	return best
}

// place computes the owning instance for a subscription — a pure
// function of kind, id, anchor switch and fleet size. Anchor-rooted
// invariants key by their anchor switch: the footprint of a
// reachability/path-length/waypoint invariant is the reachability cone
// rooted there, so invariants sharing a root share index buckets and a
// single-switch event dispatches to few instances. Isolation invariants
// sweep the whole fabric (every injection point), so no switch key
// confines them; they spread by id to balance load.
func (f *Fleet) place(sub *Subscription) int {
	if len(f.instances) == 1 {
		return 0
	}
	if sub.Kind == wire.QueryIsolation {
		return f.rendezvous(mix64(sub.ID))
	}
	return f.rendezvous(uint64(sub.Anchor.Switch))
}

func (f *Fleet) setOwner(id uint64, inst int) {
	f.ownerMu.Lock()
	f.owner[id] = inst
	f.ownerMu.Unlock()
}

func (f *Fleet) ownerOf(id uint64) (int, bool) {
	f.ownerMu.RLock()
	inst, ok := f.owner[id]
	f.ownerMu.RUnlock()
	return inst, ok
}

// RecordNonce registers a client's operation nonce, reporting false on
// replay. The window is global across instances: a replayed registration
// must be caught even if placement would send it elsewhere.
func (f *Fleet) RecordNonce(clientID, nonce uint64) bool {
	if nonce == 0 {
		return true
	}
	f.nonceMu.Lock()
	defer f.nonceMu.Unlock()
	cn := f.seenNonces[clientID]
	if cn == nil {
		cn = &clientNonces{seen: make(map[uint64]struct{})}
		f.seenNonces[clientID] = cn
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

// SeedNonce pre-loads a nonce into the replay window without a freshness
// check (persistence restore).
func (f *Fleet) SeedNonce(clientID, nonce uint64) {
	f.RecordNonce(clientID, nonce)
}

// EnsureNextID raises the id allocator to at least maxID (persistence
// restore, so fresh registrations never collide with restored ids).
func (f *Fleet) EnsureNextID(maxID uint64) {
	for {
		cur := f.nextID.Load()
		if cur >= maxID {
			return
		}
		if f.nextID.CompareAndSwap(cur, maxID) {
			return
		}
	}
}

// Register assigns an id, places and registers one subscription, and runs
// its initial evaluation.
func (f *Fleet) Register(sub *Subscription, ec EvalContext) {
	f.RegisterBatch([]*Subscription{sub}, ec)
}

// RegisterBatch assigns ids in order, partitions the batch by placement
// and fans the per-instance groups out concurrently. Build is called at
// most once across the fan-out.
func (f *Fleet) RegisterBatch(subs []*Subscription, ec EvalContext) {
	if len(subs) == 0 {
		return
	}
	groups := make(map[int][]*Subscription)
	for _, sub := range subs {
		sub.ID = f.nextID.Add(1)
		inst := f.place(sub)
		f.setOwner(sub.ID, inst)
		groups[inst] = append(groups[inst], sub)
	}
	ec.Build = buildOnce(ec.Build)
	if len(groups) == 1 {
		for inst, group := range groups {
			f.instances[inst].RegisterBatch(group, ec)
		}
		return
	}
	perInstance := ec
	if ec.Workers > 0 {
		perInstance.Workers = ec.Workers / len(groups)
		if perInstance.Workers < 1 {
			perInstance.Workers = 1
		}
	}
	var wg sync.WaitGroup
	for inst, group := range groups {
		wg.Add(1)
		go func(inst int, group []*Subscription) {
			defer wg.Done()
			f.instances[inst].RegisterBatch(group, perInstance)
		}(inst, group)
	}
	wg.Wait()
}

// Restore re-inserts a subscription rebuilt from the persistence store
// (id already assigned; caller must EnsureNextID).
func (f *Fleet) Restore(sub *Subscription) {
	inst := f.place(sub)
	f.setOwner(sub.ID, inst)
	f.instances[inst].Restore(sub)
}

// HasPendingRestore reports whether any instance still holds restored
// subscriptions awaiting re-verification.
func (f *Fleet) HasPendingRestore() bool {
	for _, ins := range f.instances {
		if ins.HasPendingRestore() {
			return true
		}
	}
	return false
}

// buildOnce memoizes a Pass/EvalContext Build so N instances compiling
// concurrently share one network.
func buildOnce(build func() (*headerspace.Network, uint64)) func() (*headerspace.Network, uint64) {
	var once sync.Once
	var net *headerspace.Network
	var snapID uint64
	return func() (*headerspace.Network, uint64) {
		once.Do(func() { net, snapID = build() })
		return net, snapID
	}
}

// Run fans one re-verification pass to the owning instances. A Force pass
// visits every instance; an indexed pass visits only the instances owning
// at least one dispatch switch's bucket (or holding pending restores).
// Returns the number of invariants evaluated.
func (f *Fleet) Run(p Pass) int {
	totalActive := uint64(0)
	for _, ins := range f.instances {
		totalActive += ins.activeCount()
	}
	if totalActive == 0 && !f.HasPendingRestore() {
		return 0
	}
	f.rechecks.Add(1)

	p.Build = buildOnce(p.Build)

	var selected []*Instance
	if p.Force {
		selected = f.instances
	} else {
		for _, ins := range f.instances {
			if ins.HasPendingRestore() || ins.OwnsAny(p.Deltas) {
				selected = append(selected, ins)
			}
		}
		f.passes.Add(1)
		f.instanceDispatches.Add(uint64(len(selected)))
	}

	var evaluated uint64
	if len(selected) == 1 {
		evaluated = uint64(selected[0].ApplyDeltas(p))
	} else if len(selected) > 1 {
		perInstance := p
		if p.Workers > 0 {
			perInstance.Workers = p.Workers / len(selected)
			if perInstance.Workers < 1 {
				perInstance.Workers = 1
			}
		}
		var wg sync.WaitGroup
		var total atomic.Uint64
		for _, ins := range selected {
			wg.Add(1)
			go func(ins *Instance) {
				defer wg.Done()
				total.Add(uint64(ins.ApplyDeltas(perInstance)))
			}(ins)
		}
		wg.Wait()
		evaluated = total.Load()
	}
	if totalActive > evaluated {
		f.revalidated.Add(totalActive - evaluated)
	}
	return int(evaluated)
}

// InstancesOwning returns the indices of instances whose index holds any
// of the given dispatch switches — the bound E18 asserts dispatch
// confinement against.
func (f *Fleet) InstancesOwning(deltas map[headerspace.NodeID]headerspace.Delta) []int {
	var out []int
	for i, ins := range f.instances {
		if ins.OwnsAny(deltas) {
			out = append(out, i)
		}
	}
	return out
}

// Unsubscribe removes a standing invariant by id.
func (f *Fleet) Unsubscribe(clientID, id uint64) bool {
	inst, ok := f.ownerOf(id)
	if !ok {
		return false
	}
	if !f.instances[inst].Unsubscribe(clientID, id) {
		return false
	}
	f.ownerMu.Lock()
	delete(f.owner, id)
	f.ownerMu.Unlock()
	return true
}

// UnsubscribeByNonce removes a client's subscription by registration
// nonce, scanning instances (the nonce is not an ownership key).
func (f *Fleet) UnsubscribeByNonce(clientID, nonce uint64) (uint64, bool) {
	for _, ins := range f.instances {
		if id, ok := ins.UnsubscribeByNonce(clientID, nonce); ok {
			f.ownerMu.Lock()
			delete(f.owner, id)
			f.ownerMu.Unlock()
			return id, true
		}
	}
	return 0, false
}

// View snapshots one subscription by id.
func (f *Fleet) View(id uint64) (SubState, bool) {
	inst, ok := f.ownerOf(id)
	if !ok {
		return SubState{}, false
	}
	return f.instances[inst].View(id)
}

// List snapshots every standing invariant across the fleet, sorted by id.
func (f *Fleet) List() []SubState {
	var out []SubState
	for _, ins := range f.instances {
		out = append(out, ins.List()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ResumeSlice merges the per-instance session slices, sorted by id.
func (f *Fleet) ResumeSlice(clientID, sessionID uint64) []SubState {
	var out []SubState
	for _, ins := range f.instances {
		out = append(out, ins.ResumeSlice(clientID, sessionID)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FleetStats aggregates the instance counters plus the fleet-level pass
// accounting.
type FleetStats struct {
	Instances int

	Active         int
	Violated       int
	PendingRestore int
	IndexBuckets   int
	IndexClasses   int
	IndexEntries   int

	Registered      uint64
	Removed         uint64
	Restored        uint64
	Evaluated       uint64
	IndexDispatched uint64
	DeltaSkipped    uint64
	ClassTests      uint64
	Violations      uint64
	Recoveries      uint64
	IsoPointsSwept  uint64
	IsoPointsReused uint64

	// Rechecks counts re-verification passes that found any active
	// subscription; Revalidated counts invariants carried through a pass
	// without re-evaluation; Passes/InstanceDispatches count indexed
	// passes and the instances they visited (InstanceDispatches/Passes is
	// the fleet-confinement ratio E18 reports).
	Rechecks           uint64
	Revalidated        uint64
	Passes             uint64
	InstanceDispatches uint64
}

// Stats aggregates across instances.
func (f *Fleet) Stats() FleetStats {
	st := FleetStats{
		Instances:          len(f.instances),
		Rechecks:           f.rechecks.Load(),
		Revalidated:        f.revalidated.Load(),
		Passes:             f.passes.Load(),
		InstanceDispatches: f.instanceDispatches.Load(),
	}
	for _, ins := range f.instances {
		is := ins.Stats()
		st.Active += is.Active
		st.Violated += is.Violated
		st.PendingRestore += is.PendingRestore
		st.IndexBuckets += is.IndexBuckets
		st.IndexClasses += is.IndexClasses
		st.IndexEntries += is.IndexEntries
		st.Registered += is.Registered
		st.Removed += is.Removed
		st.Restored += is.Restored
		st.Evaluated += is.Evaluated
		st.IndexDispatched += is.IndexDispatched
		st.DeltaSkipped += is.DeltaSkipped
		st.ClassTests += is.ClassTests
		st.Violations += is.Violations
		st.Recoveries += is.Recoveries
		st.IsoPointsSwept += is.IsoPointsSwept
		st.IsoPointsReused += is.IsoPointsReused
	}
	return st
}

// InstanceStats returns each instance's counters, in instance order.
func (f *Fleet) InstanceStats() []InstanceStats {
	out := make([]InstanceStats, len(f.instances))
	for i, ins := range f.instances {
		out[i] = ins.Stats()
	}
	return out
}

// ShardStats aggregates same-numbered shards across instances, preserving
// the single-engine admin shape for N=1.
func (f *Fleet) ShardStats() []ShardInfo {
	out := make([]ShardInfo, ShardCount)
	for i := range out {
		out[i].Shard = i
	}
	for _, ins := range f.instances {
		for i, sh := range ins.ShardStats() {
			out[i].Active += sh.Active
			out[i].Violated += sh.Violated
			out[i].IndexBuckets += sh.IndexBuckets
			out[i].IndexClasses += sh.IndexClasses
			out[i].IndexEntries += sh.IndexEntries
		}
	}
	return out
}

// CheckConsistency verifies the engine's cross-structure invariants: the
// owner map matches actual residence, and each instance's inverted index
// holds exactly the live traversals — every traversal's every visited
// switch has one entry, in the class its visit there names; no entry is
// dead, stale or duplicated; no class or bucket is empty; each bucket's
// invariant count is the number of distinct subscriptions in it. Test/debug
// surface: call it with no pass, registration or unsubscription in flight.
func (f *Fleet) CheckConsistency() error {
	for i, ins := range f.instances {
		live := make(map[uint64]*Subscription)
		for si := range ins.shards {
			sh := &ins.shards[si]
			sh.mu.Lock()
			for id, sub := range sh.subs {
				live[id] = sub
			}
			sh.mu.Unlock()
		}
		for id := range live {
			own, ok := f.ownerOf(id)
			if !ok {
				return fmt.Errorf("verifier: sub %d resident on instance %d but absent from owner map", id, i)
			}
			if own != i {
				return fmt.Errorf("verifier: sub %d resident on instance %d but owner map says %d", id, i, own)
			}
		}
		type entry struct {
			m member
			n headerspace.NodeID
		}
		indexed := make(map[entry]bool)
		for si := range ins.index {
			ish := &ins.index[si]
			ish.mu.Lock()
			err := func() error {
				for n, b := range ish.buckets {
					if len(b.classes) == 0 {
						return fmt.Errorf("verifier: instance %d index bucket %d is empty", i, n)
					}
					subs := make(map[*Subscription]bool)
					for key, cl := range b.classes {
						if len(cl.members) == 0 {
							return fmt.Errorf("verifier: instance %d index bucket %d holds an empty class", i, n)
						}
						if string(cl.visit.AppendKey(nil)) != key {
							return fmt.Errorf("verifier: instance %d index bucket %d class tests a visit its key does not name", i, n)
						}
						for _, m := range cl.members {
							if live[m.sub.ID] != m.sub {
								return fmt.Errorf("verifier: instance %d index bucket %d holds dead sub %d", i, n, m.sub.ID)
							}
							if m.t >= len(m.sub.Traversals) {
								return fmt.Errorf("verifier: instance %d index bucket %d holds traversal %d of sub %d, which has %d", i, n, m.t, m.sub.ID, len(m.sub.Traversals))
							}
							v, ok := m.sub.Traversals[m.t].VisitAt(n)
							if !ok {
								return fmt.Errorf("verifier: instance %d index bucket %d holds sub %d traversal %d whose footprint lacks it", i, n, m.sub.ID, m.t)
							}
							if string(v.AppendKey(nil)) != key {
								return fmt.Errorf("verifier: instance %d index bucket %d holds sub %d traversal %d in a class its visit does not name", i, n, m.sub.ID, m.t)
							}
							if indexed[entry{m, n}] {
								return fmt.Errorf("verifier: instance %d index bucket %d holds sub %d traversal %d twice", i, n, m.sub.ID, m.t)
							}
							indexed[entry{m, n}] = true
							subs[m.sub] = true
						}
					}
					if b.invariants != len(subs) {
						return fmt.Errorf("verifier: instance %d index bucket %d counts %d invariants, holds %d", i, n, b.invariants, len(subs))
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
						return fmt.Errorf("verifier: instance %d sub %d traversal %d footprint node %d missing from index", i, id, t, n)
					}
				}
			}
		}
	}
	return nil
}
