package verifier

import (
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

func registerN(t *testing.T, e *Engine, n int) []*Subscription {
	t.Helper()
	subs := make([]*Subscription, 0, n)
	for i := 0; i < n; i++ {
		subs = append(subs, mkSub(t, 1, topology.SwitchID(i%16)))
	}
	e.RegisterBatch(subs, EvalContext{Build: fakeBuild, Workers: 4})
	return subs
}

// TestDispatchConfinement: a single-switch pass evaluates exactly the
// invariants indexed at that switch, and tests the switch's one class once
// however many members it has.
func TestDispatchConfinement(t *testing.T) {
	env := &fakeEnv{violated: map[topology.SwitchID]bool{}}
	e := New(env)
	registerN(t, e, 64) // 4 invariants anchored on each of switches 0..15
	before := e.Stats()
	evals := env.evalCount()

	if n := e.Run(Pass{Build: fakeBuild, Deltas: changeAt(5), Workers: 4}); n != 4 {
		t.Fatalf("pass at switch 5 evaluated %d invariants, want its 4", n)
	}
	st := e.Stats()
	if got := env.evalCount() - evals; got != 4 {
		t.Fatalf("host evaluated %d invariants, want 4", got)
	}
	if st.IndexDispatched-before.IndexDispatched != 4 || st.ClassTests-before.ClassTests != 1 {
		t.Fatalf("dispatched %d with %d class tests, want 4 with 1",
			st.IndexDispatched-before.IndexDispatched, st.ClassTests-before.ClassTests)
	}
	if st.Revalidated-before.Revalidated != 60 {
		t.Fatalf("revalidated %d for free, want the other 60", st.Revalidated-before.Revalidated)
	}
}

func TestEngineUnsubscribeAndConsistency(t *testing.T) {
	e := New(&fakeEnv{violated: map[topology.SwitchID]bool{}})
	subs := registerN(t, e, 32)
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs[:10] {
		if !e.Unsubscribe(1, sub.ID) {
			t.Fatalf("unsubscribe %d failed", sub.ID)
		}
	}
	if e.Unsubscribe(2, subs[15].ID) {
		t.Fatal("unsubscribe with wrong client succeeded")
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Active != 22 {
		t.Fatalf("active = %d, want 22", st.Active)
	}
}

func TestEngineNonceReplay(t *testing.T) {
	e := New(&fakeEnv{violated: map[topology.SwitchID]bool{}})
	if !e.RecordNonce(1, 77) {
		t.Fatal("fresh nonce rejected")
	}
	if e.RecordNonce(1, 77) {
		t.Fatal("replayed nonce accepted")
	}
	if !e.RecordNonce(2, 77) {
		t.Fatal("nonce window leaked across clients")
	}
	// Window bound: the oldest nonce ages out.
	for i := uint64(0); i < maxSeenNoncesPerClient; i++ {
		e.RecordNonce(3, 1000+i)
	}
	e.RecordNonce(3, 5000)
	if !e.RecordNonce(3, 1000) {
		t.Fatal("oldest nonce did not age out of the bounded window")
	}
}

func TestEngineResumeSliceOrdering(t *testing.T) {
	e := New(&fakeEnv{violated: map[topology.SwitchID]bool{}})
	var subs []*Subscription
	for i := 0; i < 24; i++ {
		sub, err := NewSubscription(9, Source{SessionID: 55},
			wire.QueryReachableDestinations, nil, "", Anchor{Switch: topology.SwitchID(i), Port: 1})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	e.RegisterBatch(subs, EvalContext{Build: fakeBuild, Workers: 4})
	slice := e.ResumeSlice(9, 55)
	if len(slice) != 24 {
		t.Fatalf("resume slice has %d entries, want 24", len(slice))
	}
	if !sort.SliceIsSorted(slice, func(i, j int) bool { return slice[i].ID < slice[j].ID }) {
		t.Fatal("resume slice not id-ordered")
	}
	if got := e.ResumeSlice(9, 56); len(got) != 0 {
		t.Fatalf("wrong session returned %d entries", len(got))
	}
}

func TestUnsubscribeDuringEvaluationDropsCommit(t *testing.T) {
	// An unsubscribe that lands between Evaluate and commit must not
	// resurrect the subscription in the index.
	env := &fakeEnv{violated: map[topology.SwitchID]bool{}}
	e := New(env)
	sub := mkSub(t, 1, 3)
	sub.ID = e.nextID.Add(1)
	sh := e.shardFor(sub.ID)
	sh.mu.Lock()
	sh.subs[sub.ID] = sub
	sh.mu.Unlock()
	v := env.Evaluate(nil, sub, nil, true, false)
	if !e.Unsubscribe(1, sub.ID) {
		t.Fatal("unsubscribe failed")
	}
	e.commit(sub, v, 1, false)
	if err := e.CheckConsistency(); err != nil {
		t.Fatalf("late commit corrupted the index: %v", err)
	}
	if st := e.Stats(); st.Active != 0 || st.IndexEntries != 0 {
		t.Fatalf("late commit resurrected state: %+v", st)
	}
}

func TestTransitionSemantics(t *testing.T) {
	env := &fakeEnv{violated: map[topology.SwitchID]bool{4: true}}
	e := New(env)
	ok := mkSub(t, 1, 2)
	bad := mkSub(t, 1, 4)
	e.RegisterBatch([]*Subscription{ok, bad}, EvalContext{Build: fakeBuild, Workers: 1})

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
	if s, _ := e.View(ok.ID); s.Seq != 0 || s.Violated {
		t.Fatalf("healthy initial verdict wrong: %+v", s)
	}
	if s, _ := e.View(bad.ID); s.Seq != 1 || !s.Violated {
		t.Fatalf("violated initial verdict wrong: %+v", s)
	}

	// Recover switch 4: exactly one Changed+Notify transition, seq 2.
	env.mu.Lock()
	env.violated[4] = false
	env.mu.Unlock()
	e.Run(Pass{Build: fakeBuild, Force: true, Workers: 1})
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
	e := New(env)
	e.EnsureNextID(100)
	for i := 0; i < 8; i++ {
		sub := mkSub(t, 1, topology.SwitchID(i))
		sub.ID = uint64(i + 1)
		sub.Violated = true
		sub.Evaluated = true
		sub.Seq = 3
		sub.NeedsFullEval = true
		e.Restore(sub)
	}
	if !e.HasPendingRestore() {
		t.Fatal("restores not pending")
	}
	// An indexed pass with an unrelated dirty set must still pick up every
	// restored subscription (their footprints are empty, so only the
	// pending-restore path can reach them).
	evaluated := e.Run(Pass{Build: fakeBuild, Deltas: changeAt(99), Workers: 2})
	if evaluated != 8 {
		t.Fatalf("pass evaluated %d, want all 8 restored", evaluated)
	}
	if e.HasPendingRestore() {
		t.Fatal("restores still pending after pass")
	}
	// All recovered (fake env says healthy): seq advanced 3 → 4.
	for _, s := range e.List() {
		if s.Violated || s.Seq != 4 {
			t.Fatalf("restored sub %d: %+v, want recovered seq 4", s.ID, s)
		}
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Fresh registrations continue past the restored id range.
	fresh := mkSub(t, 1, 1)
	e.Register(fresh, EvalContext{Build: fakeBuild, Workers: 1})
	if fresh.ID <= 100 {
		t.Fatalf("fresh id %d collides with restored range", fresh.ID)
	}
}

// TestBuildSharedAcrossEvaluations: a batch registration and a pass each
// compile the network once, however many evaluations share it, and a pass
// that dispatches nothing never compiles.
func TestBuildSharedAcrossEvaluations(t *testing.T) {
	builds := 0
	build := func() (*headerspace.Network, uint64) {
		builds++
		return nil, 1
	}
	e := New(&fakeEnv{violated: map[topology.SwitchID]bool{}})
	var subs []*Subscription
	for i := 0; i < 32; i++ {
		subs = append(subs, mkSub(t, 1, topology.SwitchID(i)))
	}
	e.RegisterBatch(subs, EvalContext{Build: build, Workers: 4})
	if builds != 1 {
		t.Fatalf("registration compiled the network %d times, want 1", builds)
	}
	builds = 0
	e.Run(Pass{Build: build, Force: true, Workers: 4})
	if builds != 1 {
		t.Fatalf("pass compiled the network %d times, want 1", builds)
	}
	builds = 0
	e.Run(Pass{Build: build, Deltas: changeAt(999), Workers: 4})
	if builds != 0 {
		t.Fatalf("a pass that dispatched nothing compiled the network %d times", builds)
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
	e := New(env)
	sub := mkSub(t, 1, 5)
	e.Register(sub, EvalContext{Build: fakeBuild, Workers: 1})

	env.mu.Lock()
	env.violated[105] = true
	env.mu.Unlock()
	if n := e.Run(Pass{Build: fakeBuild, Deltas: changeAt(105), Workers: 1}); n != 0 {
		t.Fatalf("incremental pass evaluated %d invariants for a switch no footprint records", n)
	}
	if s, _ := e.View(sub.ID); s.Violated {
		t.Fatal("incremental pass flipped a verdict it never evaluated")
	}
	e.Run(Pass{Build: fakeBuild, Force: true, Workers: 1})
	if s, _ := e.View(sub.ID); !s.Violated {
		t.Fatal("exhaustive reference pass missed a change outside the recorded footprint")
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

// TestEngineStatsShape: the engine's aggregate counters agree with its
// per-shard view.
func TestEngineStatsShape(t *testing.T) {
	e := New(&fakeEnv{violated: map[topology.SwitchID]bool{2: true}})
	registerN(t, e, 16)
	st := e.Stats()
	if st.Active != 16 || st.Registered != 16 || st.Evaluated != 16 {
		t.Fatalf("stats %+v, want 16 active, registered and evaluated", st)
	}
	if st.Violated != 1 {
		t.Fatalf("violated = %d, want the invariant anchored at switch 2", st.Violated)
	}
	sh := e.ShardStats()
	if len(sh) != ShardCount {
		t.Fatalf("shard stats length %d, want %d", len(sh), ShardCount)
	}
	var active, violated, entries int
	for _, s := range sh {
		active += s.Active
		violated += s.Violated
		entries += s.IndexEntries
	}
	if active != st.Active || violated != st.Violated || entries != st.IndexEntries {
		t.Fatalf("shards sum to %d active, %d violated, %d entries; stats say %+v", active, violated, entries, st)
	}
}
