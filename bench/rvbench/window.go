package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/wire"
)

// segments is how many equal parts a measured window is cut into; a
// metric's reported value is the median part, its min and max the spread.
const segments = 3

// sample is one user-visible latency: at is the offset into the window of
// the instant the operation was due (open loop) or issued (closed loop).
type sample struct {
	at time.Duration
	ms float64
}

// window is one measured interval. Actors count the workload's operations
// in ops as they complete; a sampler reads it with the process CPU time at
// each segment boundary.
type window struct {
	start    time.Time
	dur      time.Duration
	ops      atomic.Int64
	spinNs   atomic.Int64 // the open-loop generator's busy-waiting
	failures atomic.Int64
	attempts atomic.Int64
	overLate atomic.Int64 // verdicts that arrived, but after lateLimit

	mu      sync.Mutex
	samples []sample
	lateMs  []float64 // open-loop generator lateness per event
}

func (w *window) addSamples(s []sample) {
	w.mu.Lock()
	w.samples = append(w.samples, s...)
	w.mu.Unlock()
}

// boundary is the sampler's reading at one segment boundary.
type boundary struct {
	at    time.Duration
	cpuMs float64
	ops   int64
}

func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procWriteBytes is the bytes this process has passed to write calls
// (/proc/self/io wchar): during sub-churn that is the subscription store's
// appends and compactions. 0 where unavailable.
func procWriteBytes() float64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return n
		}
	}
	return 0
}

// counters is every public count the per-layer metrics are made from,
// read once before and once after a window.
type counters struct {
	sub        rvaas.SubscriptionStats
	compile    rvaas.CompileStats
	ctl        rvaas.Stats
	vlogDrop   uint64
	clientDrop uint64
	clientGaps uint64
	mem        runtime.MemStats
	writeBytes float64
}

func (e *env) readCounters() counters {
	c := counters{
		sub:        e.d.RVaaS.SubscriptionStats(),
		compile:    e.d.RVaaS.CompileCacheStats(),
		ctl:        e.d.RVaaS.Stats(),
		vlogDrop:   e.d.RVaaS.ViolationLog().Dropped(),
		writeBytes: procWriteBytes(),
	}
	for _, ag := range e.d.Agents {
		c.clientDrop += ag.NotificationsDropped()
		c.clientGaps += ag.GapsDetected()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// windowResult is what one measured window yields.
type windowResult struct {
	samples    []sample
	lateMs     []float64
	bounds     []boundary // segments+1 readings
	before     counters
	after      counters
	heapMB     float64
	goroutines int
	attempted  int
	failed     int
	overLate   int
	events     []*event // open-loop events fired in this window
}

// measure runs one window: body starts the workload's actors and returns
// when the window is over and its operations have completed.
func (e *env) measure(dur time.Duration, body func(w *window) []*event) windowResult {
	res := windowResult{before: e.readCounters()}
	w := &window{start: time.Now(), dur: dur}
	res.bounds = append(res.bounds, boundary{cpuMs: cpuMs()})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for i := 1; i <= segments; i++ {
			at := dur * time.Duration(i) / segments
			time.Sleep(time.Until(w.start.Add(at)))
			res.bounds = append(res.bounds, boundary{
				at:    time.Since(w.start),
				cpuMs: cpuMs() - float64(w.spinNs.Load())/1e6,
				ops:   w.ops.Load(),
			})
		}
	}()
	res.events = body(w)
	<-samplerDone
	res.goroutines = runtime.NumGoroutine()
	res.after = e.readCounters()
	// No pass may be in flight when the live heap is read, or its working
	// set is counted.
	e.quiesce()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	res.samples, res.lateMs = w.samples, w.lateMs
	res.attempted, res.failed = int(w.attempts.Load()), int(w.failures.Load())
	res.overLate = int(w.overLate.Load())
	return res
}

// spinBefore is how long before an event is due the generator stops
// sleeping and busy-waits: a sleeping goroutine wakes up to a millisecond
// late, with a phase that drifts over seconds, which is as large as the
// differences the fast workloads are meant to resolve.
const spinBefore = 2 * time.Millisecond

// runStream fires evs on their open-loop timetable; a late generator fires
// at once and its lateness is recorded. isOp counts each fired event as
// one of the workload's operations. The time spent busy-waiting is kept so
// that the generator's own CPU is not charged to the system.
//
// A probe's rule is changed again only once the verdict of its previous
// change is in the client's hands. On time that is always so (changes to
// one probe are minInstalled apart); after a stall of the whole process —
// a shared host takes the cores away for longer than that now and then —
// the generator would otherwise fire an install and its remove back to
// back, the controller would coalesce them into no notification at all,
// and the run would report operations failed that the system never got as
// the workload defines them. The wait counts as generator lateness and,
// like all lateness, in the latency of the event it delays.
func (e *env) runStream(w *window, evs []*event, isOp bool) {
	for _, ev := range evs {
		dueAt := w.start.Add(ev.due)
		if d := time.Until(dueAt) - spinBefore; d > 0 {
			time.Sleep(d)
		}
		spinFrom := time.Now()
		for time.Now().Before(dueAt) {
		}
		w.spinNs.Add(int64(time.Since(spinFrom)))
		if ev.probe != nil {
			awaitPrevious(ev.probe)
		}
		ev.dueAt = int64(dueAt.Sub(e.epoch))
		late := time.Since(dueAt)
		w.mu.Lock()
		w.lateMs = append(w.lateMs, float64(late)/1e6)
		w.mu.Unlock()
		e.apply(ev)
		if isOp {
			w.ops.Add(1)
		}
	}
}

// collectStream turns the fired events into latency samples and failure
// counts once their notifications have arrived (or the grace has passed).
func (e *env) collectStream(w *window, evs []*event) {
	awaitDelivery(evs)
	var out []sample
	for _, ev := range evs {
		w.attempts.Add(1)
		if ev.probe == nil {
			continue
		}
		recvd := ev.recvd.Load()
		if recvd == 0 {
			w.failures.Add(1)
			e.notef("event %d on switch %d: no verified notification within %v", ev.id, ev.sw, deliveryGrace)
			continue
		}
		lat := time.Duration(recvd - ev.dueAt)
		if lat > lateLimit {
			w.overLate.Add(1)
			e.notef("event %d on switch %d: verified notification after %v", ev.id, ev.sw, lat)
		}
		out = append(out, sample{at: ev.due, ms: float64(lat) / 1e6})
	}
	w.addSamples(out)
}

// queryClient is one closed-loop client: it issues its deck's next query
// as soon as the previous verified response has returned.
type queryClient struct {
	agent *client.Agent
	deck  []querySpec
	next  int
}

func (qc *queryClient) run(e *env, w *window) {
	deadline := w.start.Add(w.dur)
	var out []sample
	for time.Now().Before(deadline) {
		q := qc.deck[qc.next%len(qc.deck)]
		qc.next++
		t0 := time.Now()
		resp, err := qc.agent.Query(q.kind, q.constraints, q.param)
		rtt := time.Since(t0)
		w.attempts.Add(1)
		switch {
		case err != nil:
			w.failures.Add(1)
			e.opError("query "+q.kind.String(), err)
		case resp.Status != wire.StatusOK:
			w.failures.Add(1)
			e.problemf("query %s: status %s: %s", q.kind, resp.Status, resp.Detail)
		default:
			if msg := q.check(resp); msg != "" {
				w.failures.Add(1)
				e.problemf("query %s: %s", q.kind, msg)
			}
		}
		w.ops.Add(1)
		out = append(out, sample{at: t0.Sub(w.start), ms: float64(rtt) / 1e6})
	}
	w.addSamples(out)
}

// churnClient is the closed-loop registration client of sub-churn: batch
// subscribe a fresh set of invariants, then retire each one.
type churnClient struct {
	agent   *client.Agent
	batches [][]wire.BatchItem
	next    int
}

func (cc *churnClient) run(e *env, w *window) {
	deadline := w.start.Add(w.dur)
	for time.Now().Before(deadline) {
		items := cc.batches[cc.next%len(cc.batches)]
		cc.next++
		w.attempts.Add(int64(2 * len(items)))
		subs, err := cc.agent.BatchSubscribe(items)
		if err != nil {
			w.failures.Add(int64(2 * len(items)))
			e.opError("batch subscribe", err)
			continue
		}
		for _, sub := range subs {
			if sub == nil || sub.InitialStatus != wire.StatusOK {
				w.failures.Add(2)
				e.problemf("batch item rejected or not green")
				continue
			}
			w.ops.Add(1)
			if err := cc.agent.Unsubscribe(sub); err != nil {
				w.failures.Add(1)
				e.opError("unsubscribe", err)
				continue
			}
			w.ops.Add(1)
		}
	}
}

// switchOfSrc places a probe's drop rule on the probe's own access switch.
func switchOfSrc(p *probe) topology.SwitchID { return p.src.Endpoint.Switch }
