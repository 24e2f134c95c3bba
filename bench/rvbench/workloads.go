package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/topology"
)

// workloadDef is one benchmark workload: why it exists, how it is loaded,
// and how its deployment and actors are made from a seed.
type workloadDef struct {
	name string
	why  string
	// loop states whether load is closed or open and at what rate.
	loop  string
	setup func(rng *rand.Rand) (*env, *actors, error)
}

// actors is the load a workload applies during a measured window: an
// optional open-loop event stream beside optional closed-loop clients, at
// most two generator goroutines in total (this is a 2-core box).
type actors struct {
	rate       float64       // stream events per second
	next       func() *event // stream plan, nil for no stream
	drain      func() []*event
	streamIsOp bool // stream events are the workload's operations
	clients    []func(*env, *window)
	restarts   int // controller kill/restore cycles after the window
	fired      int // events scheduled so far, for unique event ids
}

const (
	populationSmall = 1000
	populationLarge = 10000
	isolationShare  = 0.02
	churnBatch      = 100
	batchPerPair    = 256
	restartCycles   = 3

	// querySource is the access point of query-closed's client: the middle
	// of the chain, so the seed moves the destinations but not how far the
	// average query travels.
	querySource = 19

	// Open-loop rates in events per second, and the flip plans' group
	// sizes: a rule stays installed for one group's worth of flips, which
	// must be at least minInstalled. flip-1k walks all 39 probes (0.78 s).
	flipRate        = 50
	hubRate         = 20
	hubFlipEvery    = 4  // 1 hub event in 4 flips verdicts, 3 are neutral
	hubGroup        = 4  // flips are 0.2 s apart: 0.8 s
	churnStreamRate = 20 // sub-churn's side stream, every event a flip
	churnGroup      = 13 // 0.65 s
)

var workloads = []workloadDef{
	{
		name: "query-closed",
		why:  "in-band transport, query + in-band auth and one enclave signature do the work; the verifier does none",
		loop: "closed loop, 1 client, next query when the previous verified response returns",
		setup: func(rng *rand.Rand) (*env, *actors, error) {
			topo, err := topology.Linear(40, nil)
			if err != nil {
				return nil, nil, err
			}
			e, err := newEnv(topo, false)
			if err != nil {
				return nil, nil, err
			}
			qc := &queryClient{
				agent: e.d.Agent(e.aps[querySource].ClientID),
				deck:  queryDeck(rng, e.aps, len(topo.EdgePorts()), querySource, 2000),
			}
			return e, &actors{clients: []func(*env, *window){qc.run}}, nil
		},
	},
	{
		name: "flip-1k",
		why:  "headline path with a small dirty bucket: ingest, one-switch compile, sign, notify queue, packet-out, client verify dominate",
		loop: "open loop, 50 events/s, each flips ~26 verdicts on a chain of 40",
		setup: func(rng *rand.Rand) (*env, *actors, error) {
			topo, err := topology.Linear(40, nil)
			if err != nil {
				return nil, nil, err
			}
			e, err := newEnv(topo, false)
			if err != nil {
				return nil, nil, err
			}
			if err := e.populate(populationSmall); err != nil {
				e.close()
				return nil, nil, err
			}
			fp := newFlipPlan(rng, e.probes, len(e.probes), switchOfSrc)
			return e, &actors{rate: flipRate, next: fp.next, drain: fp.drain, streamIsOp: true}, nil
		},
	},
	{
		name: "hub-10k",
		why:  "verifier dispatch + overlap filter and reach evaluation dominate: every invariant crosses the hub, 1 event in 4 flips ~250",
		loop: "open loop, 20 hub events/s, 3 of 4 verdict-neutral, on a star of 40",
		setup: func(rng *rand.Rand) (*env, *actors, error) {
			topo, err := topology.Star(40)
			if err != nil {
				return nil, nil, err
			}
			e, err := newEnv(topo, false)
			if err != nil {
				return nil, nil, err
			}
			if err := e.populate(populationLarge); err != nil {
				e.close()
				return nil, nil, err
			}
			hub := topo.Switches()[0]
			fp := newFlipPlan(rng, e.probes, hubGroup, func(*probe) topology.SwitchID { return hub })
			np := &neutralPlan{rng: rng, sw: hub}
			k := 0
			next := func() *event {
				k++
				if k%hubFlipEvery == 0 {
					return fp.next()
				}
				return np.next()
			}
			drain := func() []*event { return append(np.drain(), fp.drain()...) }
			return e, &actors{rate: hubRate, next: next, drain: drain, streamIsOp: true}, nil
		},
	},
	{
		name: "sub-churn",
		why:  "the verifier index and shards are written (insert/unlink, store appends) beside being read by dispatch",
		loop: "closed loop, 1 client batch-subscribing 100 then unsubscribing each, beside an open-loop 20 events/s flip stream",
		setup: func(rng *rand.Rand) (*env, *actors, error) {
			topo, err := topology.Linear(40, nil)
			if err != nil {
				return nil, nil, err
			}
			e, err := newEnv(topo, true)
			if err != nil {
				return nil, nil, err
			}
			// The churn client's own pair is left out of the flip walk: every
			// batch item then registers green, and the controller never has
			// a reply and a notification for the client's switch in flight
			// at once (README, defect 1).
			churnPair := rng.Intn(len(e.aps) - 1)
			if err := e.populateInBand(rng, churnPair); err != nil {
				e.close()
				return nil, nil, err
			}
			cc := &churnClient{agent: e.d.Agent(e.aps[churnPair].ClientID)}
			for i := 0; i < 64; i++ {
				cc.batches = append(cc.batches, churnItems(rng, e.aps[churnPair+1], churnBatch))
			}
			fp := newFlipPlan(rng, e.probes, churnGroup, switchOfSrc)
			return e, &actors{
				rate: churnStreamRate, next: fp.next, drain: fp.drain,
				clients:  []func(*env, *window){cc.run},
				restarts: restartCycles,
			}, nil
		},
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// populate registers total standing invariants in-process (2% of them
// isolation sweeps) plus the in-band probes, then records the verdicts
// everything must return to.
func (e *env) populate(total int) error {
	iso := int(float64(total) * isolationShare)
	if _, err := experiments.BuildRecheckPopulation(e.d, e.d.Topology, total, iso); err != nil {
		return err
	}
	if err := e.addProbes(-1); err != nil {
		return err
	}
	e.captureVerdicts()
	return nil
}

// populateInBand registers batchPerPair invariants per adjacent pair
// through each pair's own agent in one signed batch exchange each, plus
// the probes.
func (e *env) populateInBand(rng *rand.Rand, skipProbe int) error {
	for i := 0; i+1 < len(e.aps); i++ {
		subs, err := e.d.Agent(e.aps[i].ClientID).BatchSubscribe(churnItems(rng, e.aps[i+1], batchPerPair))
		if err != nil {
			return fmt.Errorf("batch subscribe pair %d: %w", i, err)
		}
		for _, s := range subs {
			if s == nil {
				return fmt.Errorf("batch subscribe pair %d: item rejected", i)
			}
		}
	}
	if err := e.addProbes(skipProbe); err != nil {
		return err
	}
	e.captureVerdicts()
	return nil
}

// window returns the body of one measured window of dur: the clients run
// closed-loop until the deadline while the caller's goroutine fires the
// stream's timetable.
func (a *actors) window(e *env, dur time.Duration) func(*window) []*event {
	return func(w *window) []*event {
		var wg sync.WaitGroup
		for _, c := range a.clients {
			wg.Add(1)
			go func(c func(*env, *window)) {
				defer wg.Done()
				c(e, w)
			}(c)
		}
		var evs []*event
		if a.next != nil {
			evs = schedule(int(a.rate*dur.Seconds()), a.rate, a.next)
			for _, ev := range evs {
				ev.id += a.fired
			}
			a.fired += len(evs)
			e.runStream(w, evs, a.streamIsOp)
		}
		wg.Wait()
		e.collectStream(w, evs)
		return evs
	}
}

// finish ends an event workload: every rule still installed is removed
// (each removal's recovery must arrive like any other notification) and
// the end-of-workload verdict gate runs.
func (a *actors) finish(e *env) (attempted, failed int) {
	if a.drain == nil {
		return 0, 0
	}
	evs := a.drain()
	for _, ev := range evs {
		ev.id = a.fired
		a.fired++
		ev.dueAt = e.since()
		e.apply(ev)
		awaitDelivery([]*event{ev})
		if ev.probe != nil && ev.recvd.Load() == 0 {
			failed++
			e.notef("drain of switch %d: no verified recovery within %v", ev.sw, deliveryGrace)
		}
	}
	e.checkVerdicts()
	return len(evs), failed
}

// restartAttempts bounds the bring-ups tried in one kill/restore cycle.
const restartAttempts = 8

// restart kills the controller and times until a fresh instance has
// restored the whole population from the store, re-attached every switch
// and re-verified every invariant. Re-attaching can fail transiently (see
// "Defects found" in the README); a failed bring-up is tried again and the
// cycle's time includes it, as an operator's would.
func (e *env) restart() (time.Duration, error) {
	t0 := time.Now()
	for attempt := 1; ; attempt++ {
		err := e.d.RestartRVaaS()
		if err == nil {
			break
		}
		e.notef("restart, bring-up %d: %v", attempt, err)
		if attempt == restartAttempts {
			return 0, err
		}
	}
	e.d.RVaaS.RecheckNow()
	took := time.Since(t0)
	st := e.d.RVaaS.SubscriptionStats()
	if int(st.Restored) != e.registered || int(st.Active) != e.registered {
		e.problemf("restart: restored %d, active %d, registered %d", st.Restored, st.Active, e.registered)
	}
	return took, nil
}
