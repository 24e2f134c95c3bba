package verifier

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/headerspace"
	"repro/internal/topology"
	"repro/internal/wire"
)

// scriptEnv is a host whose traversals record whatever footprints the test
// scripted: plan[sub] is what each traversal of sub records the next time
// it runs, recorded[sub] what it recorded when it last ran — what the
// index must hold. Evaluate also notes the dirty set it was handed.
type scriptEnv struct {
	mu       sync.Mutex
	plan     map[*Subscription][]headerspace.Footprint
	recorded map[*Subscription][]headerspace.Footprint
	handed   map[*Subscription][]int
}

func newScriptEnv() *scriptEnv {
	return &scriptEnv{
		plan:     make(map[*Subscription][]headerspace.Footprint),
		recorded: make(map[*Subscription][]headerspace.Footprint),
		handed:   make(map[*Subscription][]int),
	}
}

func (e *scriptEnv) Evaluate(net *headerspace.Network, sub *Subscription, dirty []int, fullSweep, pooled bool) Verdict {
	e.mu.Lock()
	defer e.mu.Unlock()
	plan := e.plan[sub]
	run := dirty
	if fullSweep {
		run = make([]int, len(plan))
		for i := range run {
			run[i] = i
		}
	} else {
		e.handed[sub] = dirty
	}
	rec := e.recorded[sub]
	if rec == nil {
		rec = make([]headerspace.Footprint, len(plan))
		e.recorded[sub] = rec
	}
	var v Verdict
	for _, t := range run {
		rec[t] = plan[t]
		v.Ran = append(v.Ran, TraversalFootprint{Index: t, FP: plan[t]})
	}
	return v
}

func (e *scriptEnv) Commit(Transition) {}

// forget drops a subscription the test unsubscribed.
func (e *scriptEnv) forget(sub *Subscription) {
	e.mu.Lock()
	delete(e.plan, sub)
	delete(e.recorded, sub)
	e.mu.Unlock()
}

const (
	scriptWidth = 8
	scriptNodes = 6
)

// scriptSlices is the small pool visits draw from, so that traversals of
// different subscriptions often present the same thing and share a class.
var scriptSlices = func() []headerspace.Space {
	var pool []headerspace.Space
	for v := 0; v < 4; v++ {
		h := headerspace.AllX(scriptWidth)
		for b := 0; b < 2; b++ {
			bit := headerspace.Bit0
			if v>>b&1 == 1 {
				bit = headerspace.Bit1
			}
			h = h.SetBit(b, bit)
		}
		pool = append(pool, headerspace.NewSpace(scriptWidth, h))
	}
	return pool
}()

// randFootprint draws one traversal's footprint: each node is skipped or
// visited unconstrained, cap-collapsed, on listed ports (one or two terms,
// one or two ports) or on any port.
func randFootprint(r *rand.Rand) headerspace.Footprint {
	fp := headerspace.NewFootprint()
	for n := headerspace.NodeID(0); n < scriptNodes; n++ {
		slice := scriptSlices[r.Intn(len(scriptSlices))]
		switch r.Intn(7) {
		case 0: // an empty slice: the node is unconstrained, on any port
			fp.AddSlice(n, headerspace.Space{})
		case 1:
			for i := 0; i < 40; i++ { // past the footprint's term cap
				fp.AddSliceAt(n, slice, 1)
			}
		case 2:
			fp.AddSliceAt(n, slice, headerspace.PortID(1+r.Intn(3)))
		case 3:
			fp.AddSliceAt(n, slice, 1)
			fp.AddSliceAt(n, scriptSlices[r.Intn(len(scriptSlices))], headerspace.PortID(2+r.Intn(2)))
		case 4:
			fp.AddSlice(n, slice)
		}
	}
	return fp
}

func randPlan(r *rand.Rand, traversals int) []headerspace.Footprint {
	plan := make([]headerspace.Footprint, traversals)
	for i := range plan {
		plan[i] = randFootprint(r)
	}
	return plan
}

// randDeltas draws a pass's deltas: one switch mostly, several sometimes,
// each the full space or a pool slice, on any port or one.
func randDeltas(r *rand.Rand) map[headerspace.NodeID]headerspace.Delta {
	deltas := make(map[headerspace.NodeID]headerspace.Delta)
	switches := 1
	if r.Intn(3) == 0 {
		switches = 2 + r.Intn(2)
	}
	for len(deltas) < switches {
		d := headerspace.Delta{Space: headerspace.FullSpace(scriptWidth)}
		if r.Intn(4) > 0 {
			d.Space = scriptSlices[r.Intn(len(scriptSlices))]
		}
		if r.Intn(2) == 0 {
			d.Ports = []headerspace.PortID{headerspace.PortID(1 + r.Intn(3))}
		}
		deltas[headerspace.NodeID(r.Intn(scriptNodes))] = d
	}
	return deltas
}

// bruteForceDispatch is the dispatch reference: test every live traversal's
// recorded footprint with InvalidatedBy, one at a time.
func bruteForceDispatch(env *scriptEnv, deltas map[headerspace.NodeID]headerspace.Delta) map[*Subscription][]int {
	env.mu.Lock()
	defer env.mu.Unlock()
	want := make(map[*Subscription][]int)
	for sub, rec := range env.recorded {
		for t, fp := range rec {
			if fp.InvalidatedBy(deltas) {
				want[sub] = append(want[sub], t)
			}
		}
	}
	return want
}

// indexedAt counts the distinct live subscriptions with a recorded
// traversal through n.
func indexedAt(env *scriptEnv, n headerspace.NodeID) int {
	env.mu.Lock()
	defer env.mu.Unlock()
	count := 0
	for _, rec := range env.recorded {
		for _, fp := range rec {
			if fp.Contains(n) {
				count++
				break
			}
		}
	}
	return count
}

// classesAt counts the classes the engine holds at n.
func classesAt(e *Engine, n headerspace.NodeID) int {
	ish := e.indexFor(n)
	ish.mu.Lock()
	defer ish.mu.Unlock()
	if b := ish.buckets[n]; b != nil {
		return len(b.classes)
	}
	return 0
}

func describeDispatch(m map[*Subscription][]int) string {
	byID := make(map[uint64][]int, len(m))
	for sub, ts := range m {
		byID[sub.ID] = ts
	}
	return fmt.Sprint(byID)
}

func scriptSub(t *testing.T, r *rand.Rand, traversals int) *Subscription {
	t.Helper()
	kind := wire.QueryReachableDestinations
	if traversals > 1 {
		kind = wire.QueryIsolation
	}
	sub, err := NewSubscription(1, Source{}, kind, nil, "", Anchor{Switch: 1 + topology.SwitchID(r.Intn(4)), Port: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestTraversalIndexDifferential drives the engine through seeded random
// registrations, unsubscriptions and passes whose evaluations re-record
// changed footprints, and holds the class index to the brute-force
// reference at every step: the traversals a pass hands the host are exactly
// the ones InvalidatedBy names, the counters add up, and the index's
// structure checks out.
func TestTraversalIndexDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		env := newScriptEnv()
		e := New(env)
		var live []*Subscription

		for step := 0; step < 300; step++ {
			switch op := r.Intn(10); {
			case op < 3 || len(live) < 4:
				traversals := 1
				if r.Intn(3) == 0 {
					traversals = 2 + r.Intn(4)
				}
				sub := scriptSub(t, r, traversals)
				env.plan[sub] = randPlan(r, traversals)
				e.Register(sub, EvalContext{Build: fakeBuild, Workers: 2})
				live = append(live, sub)
			case op < 4:
				i := r.Intn(len(live))
				if !e.Unsubscribe(1, live[i].ID) {
					t.Fatalf("seed %d step %d: unsubscribe %d failed", seed, step, live[i].ID)
				}
				env.forget(live[i])
				live = append(live[:i], live[i+1:]...)
			default:
				// Whatever this pass re-runs records something new.
				for _, sub := range live {
					if r.Intn(2) == 0 {
						env.plan[sub] = randPlan(r, len(env.plan[sub]))
					}
				}
				deltas := randDeltas(r)
				want := bruteForceDispatch(env, deltas)
				indexed, classes := 0, 0
				for n := range deltas {
					indexed += indexedAt(env, n)
					classes += classesAt(e, n)
				}
				env.handed = make(map[*Subscription][]int)
				before := e.Stats()
				evaluated := e.Run(Pass{Build: fakeBuild, Deltas: deltas, Workers: 2})
				after := e.Stats()

				if !reflect.DeepEqual(env.handed, want) {
					t.Fatalf("seed %d step %d: deltas %v\n  index dispatched %s\n  brute force says %s",
						seed, step, deltas, describeDispatch(env.handed), describeDispatch(want))
				}
				if evaluated != len(want) || after.IndexDispatched-before.IndexDispatched != uint64(len(want)) {
					t.Fatalf("seed %d step %d: evaluated %d, IndexDispatched +%d, want %d",
						seed, step, evaluated, after.IndexDispatched-before.IndexDispatched, len(want))
				}
				if len(deltas) == 1 {
					// On a single-switch pass dispatched + skipped is the bucket.
					if got := int(after.IndexDispatched-before.IndexDispatched) + int(after.DeltaSkipped-before.DeltaSkipped); got != indexed {
						t.Fatalf("seed %d step %d: dispatched + skipped = %d, %d invariants indexed at the switch", seed, step, got, indexed)
					}
				}
				if tests := int(after.ClassTests - before.ClassTests); tests != classes {
					t.Fatalf("seed %d step %d: %d class tests, the dispatched switches held %d classes", seed, step, tests, classes)
				}
			}
			if err := e.CheckConsistency(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
		for _, sub := range live {
			e.Unsubscribe(1, sub.ID)
		}
		if err := e.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: after unsubscribing everything: %v", seed, err)
		}
		if st := e.Stats(); st.IndexEntries != 0 || st.IndexClasses != 0 || st.IndexBuckets != 0 {
			t.Fatalf("seed %d: index not empty after unsubscribing everything: %+v", seed, st)
		}
	}
}

// TestClassSharing pins what the index buys: traversals presenting the same
// thing at a switch cost one test between them, and one presenting
// something else gets its own class.
func TestClassSharing(t *testing.T) {
	env := newScriptEnv()
	e := New(env)
	r := rand.New(rand.NewSource(1))
	at := func(slice headerspace.Space, port headerspace.PortID) headerspace.Footprint {
		fp := headerspace.NewFootprint()
		fp.AddSliceAt(3, slice, port)
		return fp
	}
	for i := 0; i < 50; i++ {
		sub := scriptSub(t, r, 1)
		env.plan[sub] = []headerspace.Footprint{at(scriptSlices[0], 1)}
		e.Register(sub, EvalContext{Build: fakeBuild, Workers: 1})
	}
	odd := scriptSub(t, r, 1)
	env.plan[odd] = []headerspace.Footprint{at(scriptSlices[1], 1)}
	e.Register(odd, EvalContext{Build: fakeBuild, Workers: 1})

	st := e.Stats()
	if st.IndexEntries != 51 || st.IndexClasses != 2 || st.IndexBuckets != 1 {
		t.Fatalf("index geometry: %d entries, %d classes, %d buckets; want 51, 2, 1", st.IndexEntries, st.IndexClasses, st.IndexBuckets)
	}
	evaluated := e.Run(Pass{Build: fakeBuild, Workers: 1,
		Deltas: map[headerspace.NodeID]headerspace.Delta{3: {Space: scriptSlices[1]}}})
	after := e.Stats()
	if evaluated != 1 || after.ClassTests-st.ClassTests != 2 || after.DeltaSkipped-st.DeltaSkipped != 50 {
		t.Fatalf("pass evaluated %d with %d class tests and %d skipped; want 1, 2, 50",
			evaluated, after.ClassTests-st.ClassTests, after.DeltaSkipped-st.DeltaSkipped)
	}
}

// TestClassIndexChurn runs registration, unsubscription and passes
// concurrently (the sub-churn shape) for the race detector, then checks
// the quiesced index against its structure rules and the brute-force
// dispatch reference.
func TestClassIndexChurn(t *testing.T) {
	env := newScriptEnv()
	e := New(env)
	const rounds = 150

	registered := make(chan *Subscription, rounds)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // registrar
		defer wg.Done()
		defer close(registered)
		r := rand.New(rand.NewSource(11))
		for i := 0; i < rounds; i++ {
			traversals := 1 + r.Intn(3)
			sub, err := NewSubscription(1, Source{}, wire.QueryIsolation, nil, "", Anchor{Switch: 1 + topology.SwitchID(r.Intn(4)), Port: 1})
			if err != nil {
				t.Error(err)
				return
			}
			env.mu.Lock()
			env.plan[sub] = randPlan(r, traversals)
			env.mu.Unlock()
			e.Register(sub, EvalContext{Build: fakeBuild, Workers: 2})
			registered <- sub
		}
	}()
	go func() { // unsubscriber: every other registration
		defer wg.Done()
		keep := false
		for sub := range registered {
			if keep = !keep; keep {
				continue
			}
			if !e.Unsubscribe(1, sub.ID) {
				t.Errorf("unsubscribe %d failed", sub.ID)
			}
		}
	}()
	go func() { // passes
		defer wg.Done()
		r := rand.New(rand.NewSource(12))
		for i := 0; i < rounds; i++ {
			e.Run(Pass{Build: fakeBuild, Deltas: randDeltas(r), Workers: 2})
		}
	}()
	wg.Wait()

	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The host's record of an unsubscribed invariant is stale; drop those
	// before comparing against it.
	liveIDs := make(map[uint64]bool)
	for _, s := range e.List() {
		liveIDs[s.ID] = true
	}
	for sub := range env.recorded {
		if !liveIDs[sub.ID] {
			env.forget(sub)
		}
	}
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 20; i++ {
		deltas := randDeltas(r)
		want := bruteForceDispatch(env, deltas)
		got := e.dispatch(deltas)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("deltas %v\n  index dispatched %s\n  brute force says %s", deltas, describeDispatch(got), describeDispatch(want))
		}
	}
}
