package verifier

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/headerspace"
	"repro/internal/topology"
	"repro/internal/wire"
)

// fakeEnv is a deterministic host: an invariant anchored at switch s is
// violated iff s or s+100 is in the violated set, and its footprint is
// {s, s+100} (the second node models a downstream switch the reachability
// cone traverses). underRecord drops s+100 from the footprint while the
// verdict keeps depending on it — the evaluator bug the exhaustive
// reference exists to catch.
type fakeEnv struct {
	mu          sync.Mutex
	violated    map[topology.SwitchID]bool
	underRecord bool
	evaluations int
	transitions []Transition
}

func (e *fakeEnv) Evaluate(net *headerspace.Network, sub *Subscription, dirty []int, fullSweep, pooled bool) Verdict {
	e.mu.Lock()
	bad := e.violated[sub.Anchor.Switch] || e.violated[sub.Anchor.Switch+100]
	e.evaluations++
	e.mu.Unlock()
	fp := headerspace.NewFootprint()
	fp.AddSlice(headerspace.NodeID(sub.Anchor.Switch), headerspace.FullSpace(8))
	if !e.underRecord {
		fp.AddSlice(headerspace.NodeID(sub.Anchor.Switch)+100, headerspace.FullSpace(8))
	}
	detail := "ok"
	if bad {
		detail = "violated"
	}
	return Verdict{Violated: bad, Detail: detail, Ran: []TraversalFootprint{{FP: fp}}}
}

func (e *fakeEnv) Commit(t Transition) {
	e.mu.Lock()
	e.transitions = append(e.transitions, t)
	e.mu.Unlock()
}

func (e *fakeEnv) evalCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evaluations
}

func fakeBuild() (*headerspace.Network, uint64) { return nil, 1 }

// changeAt is the rule delta of an unconstrained change on one switch.
func changeAt(n headerspace.NodeID) map[headerspace.NodeID]headerspace.Delta {
	return map[headerspace.NodeID]headerspace.Delta{n: {Space: headerspace.FullSpace(8)}}
}

func mkSub(t *testing.T, client uint64, sw topology.SwitchID) *Subscription {
	t.Helper()
	sub, err := NewSubscription(client, Source{}, wire.QueryReachableDestinations, nil, "",
		Anchor{Switch: sw, Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func registerN(t *testing.T, f *Fleet, n int) []*Subscription {
	t.Helper()
	subs := make([]*Subscription, 0, n)
	for i := 0; i < n; i++ {
		subs = append(subs, mkSub(t, 1, topology.SwitchID(i%16)))
	}
	f.RegisterBatch(subs, EvalContext{Build: fakeBuild, Workers: 4})
	return subs
}

func TestPlacementDeterministic(t *testing.T) {
	f := New(Config{Instances: 4}, &fakeEnv{violated: map[topology.SwitchID]bool{}})
	sub := mkSub(t, 1, 7)
	sub.ID = 42
	a := f.place(sub)
	for i := 0; i < 10; i++ {
		if got := f.place(sub); got != a {
			t.Fatalf("placement not deterministic: %d then %d", a, got)
		}
	}
	// Same anchor switch → same instance, regardless of id.
	other := mkSub(t, 2, 7)
	other.ID = 9999
	if got := f.place(other); got != a {
		t.Fatalf("placement split anchor switch 7 across instances %d and %d", a, got)
	}
	// Isolation spreads by id, not anchor.
	iso, err := NewSubscription(1, Source{}, wire.QueryIsolation, nil, "", Anchor{Switch: 7})
	if err != nil {
		t.Fatal(err)
	}
	spread := map[int]bool{}
	for id := uint64(1); id <= 64; id++ {
		iso.ID = id
		spread[f.place(iso)] = true
	}
	if len(spread) < 2 {
		t.Fatal("isolation invariants all landed on one instance; expected id spread")
	}
}

func TestFleetN1MatchesN4(t *testing.T) {
	run := func(n int) ([]SubState, FleetStats) {
		env := &fakeEnv{violated: map[topology.SwitchID]bool{3: true}}
		f := New(Config{Instances: n}, env)
		registerN(t, f, 64)
		// Flip switch 5's invariants to violated and re-verify only its
		// bucket.
		env.mu.Lock()
		env.violated[5] = true
		env.mu.Unlock()
		f.Run(Pass{Build: fakeBuild, Deltas: changeAt(5), Workers: 4})
		return f.List(), f.Stats()
	}
	l1, s1 := run(1)
	l4, s4 := run(4)
	if len(l1) != len(l4) {
		t.Fatalf("population diverged: %d vs %d", len(l1), len(l4))
	}
	for i := range l1 {
		a, b := l1[i], l4[i]
		if a.ID != b.ID || a.Violated != b.Violated || a.Detail != b.Detail || a.Seq != b.Seq {
			t.Fatalf("sub %d diverged between N=1 and N=4:\n  %+v\n  %+v", a.ID, a, b)
		}
	}
	if s1.Evaluated != s4.Evaluated || s1.Violations != s4.Violations ||
		s1.Rechecks != s4.Rechecks || s1.Revalidated != s4.Revalidated ||
		s1.IndexDispatched != s4.IndexDispatched {
		t.Fatalf("counters diverged:\nN=1 %+v\nN=4 %+v", s1, s4)
	}
}

func TestDispatchConfinement(t *testing.T) {
	env := &fakeEnv{violated: map[topology.SwitchID]bool{}}
	f := New(Config{Instances: 4}, env)
	registerN(t, f, 64)
	before := env.evalCount()

	owning := f.InstancesOwning(changeAt(5))
	if len(owning) == 0 || len(owning) == f.Size() {
		t.Fatalf("expected a strict subset of instances to own bucket 5, got %v", owning)
	}
	f.Run(Pass{Build: fakeBuild, Deltas: changeAt(5), Workers: 4})

	st := f.Stats()
	if got := int(st.InstanceDispatches); got != len(owning) {
		t.Fatalf("pass visited %d instances, owning set is %v", got, owning)
	}
	// Only the owning instances evaluated anything.
	for i, is := range f.InstanceStats() {
		owns := false
		for _, o := range owning {
			if o == i {
				owns = true
			}
		}
		evals := is.Evaluated - is.Registered // registration evals counted too
		if !owns && (evals > 0 || is.ClassTests > 0) {
			t.Fatalf("non-owning instance %d ran %d class tests and evaluated %d invariants", i, is.ClassTests, evals)
		}
		// Every invariant here presents the full space on any port: one
		// class, one test, however many members.
		if owns && is.ClassTests != 1 {
			t.Fatalf("owning instance %d ran %d class tests for one dispatched switch, want 1", i, is.ClassTests)
		}
	}
	if env.evalCount() == before {
		t.Fatal("pass evaluated nothing")
	}
}

func TestFleetUnsubscribeAndConsistency(t *testing.T) {
	f := New(Config{Instances: 4}, &fakeEnv{violated: map[topology.SwitchID]bool{}})
	subs := registerN(t, f, 32)
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs[:10] {
		if !f.Unsubscribe(1, sub.ID) {
			t.Fatalf("unsubscribe %d failed", sub.ID)
		}
	}
	if f.Unsubscribe(2, subs[15].ID) {
		t.Fatal("unsubscribe with wrong client succeeded")
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Active != 22 {
		t.Fatalf("active = %d, want 22", st.Active)
	}
}

func TestFleetNonceReplay(t *testing.T) {
	f := New(Config{Instances: 2}, &fakeEnv{violated: map[topology.SwitchID]bool{}})
	if !f.RecordNonce(1, 77) {
		t.Fatal("fresh nonce rejected")
	}
	if f.RecordNonce(1, 77) {
		t.Fatal("replayed nonce accepted")
	}
	if !f.RecordNonce(2, 77) {
		t.Fatal("nonce window leaked across clients")
	}
	// Window bound: the oldest nonce ages out.
	for i := uint64(0); i < maxSeenNoncesPerClient; i++ {
		f.RecordNonce(3, 1000+i)
	}
	f.RecordNonce(3, 5000)
	if !f.RecordNonce(3, 1000) {
		t.Fatal("oldest nonce did not age out of the bounded window")
	}
}

func TestFleetResumeSliceOrdering(t *testing.T) {
	f := New(Config{Instances: 4}, &fakeEnv{violated: map[topology.SwitchID]bool{}})
	var subs []*Subscription
	for i := 0; i < 24; i++ {
		sub, err := NewSubscription(9, Source{SessionID: 55},
			wire.QueryReachableDestinations, nil, "", Anchor{Switch: topology.SwitchID(i), Port: 1})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	f.RegisterBatch(subs, EvalContext{Build: fakeBuild, Workers: 4})
	slice := f.ResumeSlice(9, 55)
	if len(slice) != 24 {
		t.Fatalf("resume slice has %d entries, want 24", len(slice))
	}
	if !sort.SliceIsSorted(slice, func(i, j int) bool { return slice[i].ID < slice[j].ID }) {
		t.Fatal("resume slice not id-ordered")
	}
	if got := f.ResumeSlice(9, 56); len(got) != 0 {
		t.Fatalf("wrong session returned %d entries", len(got))
	}
}

func TestUnsubscribeDuringEvaluationDropsCommit(t *testing.T) {
	// An unsubscribe that lands between Evaluate and commit must not
	// resurrect the subscription in the index.
	env := &fakeEnv{violated: map[topology.SwitchID]bool{}}
	f := New(Config{Instances: 1}, env)
	sub := mkSub(t, 1, 3)
	ins := f.Instance(0)
	sub.ID = f.nextID.Add(1)
	f.setOwner(sub.ID, 0)
	sh := ins.shardFor(sub.ID)
	sh.mu.Lock()
	sh.subs[sub.ID] = sub
	sh.mu.Unlock()
	v := env.Evaluate(nil, sub, nil, true, false)
	if !f.Unsubscribe(1, sub.ID) {
		t.Fatal("unsubscribe failed")
	}
	ins.commit(sub, v, 1, false)
	if err := f.CheckConsistency(); err != nil {
		t.Fatalf("late commit corrupted the index: %v", err)
	}
	if st := f.Stats(); st.Active != 0 || st.IndexEntries != 0 {
		t.Fatalf("late commit resurrected state: %+v", st)
	}
}

func TestTransitionSemantics(t *testing.T) {
	env := &fakeEnv{violated: map[topology.SwitchID]bool{4: true}}
	f := New(Config{Instances: 2}, env)
	ok := mkSub(t, 1, 2)
	bad := mkSub(t, 1, 4)
	f.RegisterBatch([]*Subscription{ok, bad}, EvalContext{Build: fakeBuild, Workers: 1})

	env.mu.Lock()
	firsts := 0
	for _, tr := range env.transitions {
		if !tr.First {
			t.Fatalf("registration commit not marked First: %+v", tr)
		}
		if tr.Notify {
			t.Fatalf("registration commit must not notify: %+v", tr)
		}
		firsts++
	}
	env.transitions = nil
	env.mu.Unlock()
	if firsts != 2 {
		t.Fatalf("expected 2 first commits, got %d", firsts)
	}
	if s, _ := f.View(ok.ID); s.Seq != 0 || s.Violated {
		t.Fatalf("healthy initial verdict wrong: %+v", s)
	}
	if s, _ := f.View(bad.ID); s.Seq != 1 || !s.Violated {
		t.Fatalf("violated initial verdict wrong: %+v", s)
	}

	// Recover switch 4: exactly one Changed+Notify transition, seq 2.
	env.mu.Lock()
	env.violated[4] = false
	env.mu.Unlock()
	f.Run(Pass{Build: fakeBuild, Force: true, Workers: 1})
	env.mu.Lock()
	defer env.mu.Unlock()
	if len(env.transitions) != 1 {
		t.Fatalf("recovery pass emitted %d transitions, want 1 (unchanged sub must not re-commit)", len(env.transitions))
	}
	tr := env.transitions[0]
	if tr.Sub.ID != bad.ID || !tr.Changed || tr.First || !tr.Notify || tr.Seq != 2 || tr.Violated {
		t.Fatalf("recovery transition wrong: %+v", tr)
	}
}

func TestRestoreJoinsNextPass(t *testing.T) {
	env := &fakeEnv{violated: map[topology.SwitchID]bool{}}
	f := New(Config{Instances: 4}, env)
	f.EnsureNextID(100)
	for i := 0; i < 8; i++ {
		sub := mkSub(t, 1, topology.SwitchID(i))
		sub.ID = uint64(i + 1)
		sub.Violated = true
		sub.Evaluated = true
		sub.Seq = 3
		sub.NeedsFullEval = true
		f.Restore(sub)
	}
	if !f.HasPendingRestore() {
		t.Fatal("restores not pending")
	}
	// An indexed pass with an unrelated dirty set must still pick up every
	// restored subscription (their footprints are empty, so only the
	// pending-restore path can reach them).
	evaluated := f.Run(Pass{Build: fakeBuild, Deltas: changeAt(99), Workers: 2})
	if evaluated != 8 {
		t.Fatalf("pass evaluated %d, want all 8 restored", evaluated)
	}
	if f.HasPendingRestore() {
		t.Fatal("restores still pending after pass")
	}
	// All recovered (fake env says healthy): seq advanced 3 → 4.
	for _, s := range f.List() {
		if s.Violated || s.Seq != 4 {
			t.Fatalf("restored sub %d: %+v, want recovered seq 4", s.ID, s)
		}
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Fresh registrations continue past the restored id range.
	fresh := mkSub(t, 1, 1)
	f.Register(fresh, EvalContext{Build: fakeBuild, Workers: 1})
	if fresh.ID <= 100 {
		t.Fatalf("fresh id %d collides with restored range", fresh.ID)
	}
}

func TestBuildSharedAcrossInstances(t *testing.T) {
	builds := 0
	build := func() (*headerspace.Network, uint64) {
		builds++
		return nil, 1
	}
	f := New(Config{Instances: 4}, &fakeEnv{violated: map[topology.SwitchID]bool{}})
	var subs []*Subscription
	for i := 0; i < 32; i++ {
		subs = append(subs, mkSub(t, 1, topology.SwitchID(i)))
	}
	f.RegisterBatch(subs, EvalContext{Build: build, Workers: 1})
	if builds != 1 {
		t.Fatalf("registration compiled the network %d times, want 1", builds)
	}
	builds = 0
	f.Run(Pass{Build: build, Force: true, Workers: 1})
	if builds != 1 {
		t.Fatalf("pass compiled the network %d times, want 1", builds)
	}
}

// TestReferenceCatchesUnderRecordedFootprint pins what makes a Force pass
// the reference: it consults no recorded footprint. The evaluator here
// under-records — the verdict depends on a switch the footprint omits —
// so after a change on that switch the incremental pass (correctly, given
// the footprint it was handed) skips the invariant, and only the
// exhaustive pass sees the flip.
func TestReferenceCatchesUnderRecordedFootprint(t *testing.T) {
	env := &fakeEnv{violated: map[topology.SwitchID]bool{}, underRecord: true}
	f := New(Config{Instances: 2}, env)
	sub := mkSub(t, 1, 5)
	f.Register(sub, EvalContext{Build: fakeBuild, Workers: 1})

	env.mu.Lock()
	env.violated[105] = true
	env.mu.Unlock()
	if n := f.Run(Pass{Build: fakeBuild, Deltas: changeAt(105), Workers: 1}); n != 0 {
		t.Fatalf("incremental pass evaluated %d invariants for a switch no footprint records", n)
	}
	if s, _ := f.View(sub.ID); s.Violated {
		t.Fatal("incremental pass flipped a verdict it never evaluated")
	}
	f.Run(Pass{Build: fakeBuild, Force: true, Workers: 1})
	if s, _ := f.View(sub.ID); !s.Violated {
		t.Fatal("exhaustive reference pass missed a change outside the recorded footprint")
	}
}

// TestRendezvousBalance: isolation invariants spread by rendezvous hash of
// their id; the spread must be near-uniform.
func TestRendezvousBalance(t *testing.T) {
	f := New(Config{Instances: 4}, &fakeEnv{violated: map[topology.SwitchID]bool{}})
	counts := make([]int, 4)
	for id := uint64(1); id <= 4096; id++ {
		sub := &Subscription{ID: id, Kind: wire.QueryIsolation}
		counts[f.place(sub)]++
	}
	for i, c := range counts {
		if c < 700 || c > 1350 {
			t.Fatalf("instance %d got %d of 4096 ids (counts %v); rendezvous badly skewed", i, c, counts)
		}
	}
}

func TestNewSubscriptionValidation(t *testing.T) {
	if _, err := NewSubscription(1, Source{}, wire.QueryPathLength, nil, "seven", Anchor{}); err == nil {
		t.Fatal("non-integer path bound accepted")
	}
	sub, err := NewSubscription(1, Source{}, wire.QueryPathLength, nil, "7", Anchor{})
	if err != nil || sub.Bound != 7 {
		t.Fatalf("path bound not parsed: %v %+v", err, sub)
	}
	if _, err := NewSubscription(1, Source{}, wire.QueryKind(200), nil, "", Anchor{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestInstanceStatsShape(t *testing.T) {
	f := New(Config{Instances: 3}, &fakeEnv{violated: map[topology.SwitchID]bool{2: true}})
	registerN(t, f, 16)
	per := f.InstanceStats()
	if len(per) != 3 {
		t.Fatalf("got %d instance stats, want 3", len(per))
	}
	var active, reg int
	for i, is := range per {
		if is.Instance != i {
			t.Fatalf("instance stat %d labeled %d", i, is.Instance)
		}
		active += is.Active
		reg += int(is.Registered)
	}
	if active != 16 || reg != 16 {
		t.Fatalf("per-instance totals active=%d registered=%d, want 16/16", active, reg)
	}
	agg := f.Stats()
	if agg.Active != 16 || agg.Instances != 3 {
		t.Fatalf("aggregate stats wrong: %+v", agg)
	}
	if agg.Violated == 0 {
		t.Fatal("violated count lost in aggregation")
	}
	sh := f.ShardStats()
	if len(sh) != ShardCount {
		t.Fatalf("shard stats length %d, want %d", len(sh), ShardCount)
	}
	shardActive := 0
	for _, s := range sh {
		shardActive += s.Active
	}
	if shardActive != 16 {
		t.Fatalf("shard stats active sum %d, want 16", shardActive)
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
