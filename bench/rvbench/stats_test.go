package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/topology"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{7, 1, 10, 3, 5, 9, 2, 8, 4, 6} // 1..10, shuffled
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if ten[0] != 7 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{4.2}, 90); got != 4.2 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
}

func TestMedianAndSegmentSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	sp := segmentSpread([]float64{12, 9, 30})
	if sp != (spread{Median: 12, Min: 9, Max: 30}) {
		t.Errorf("segmentSpread = %+v", sp)
	}
	if segmentSpread(nil) != (spread{}) {
		t.Error("segmentSpread of nothing is not zero")
	}
}

func TestSegmentOf(t *testing.T) {
	const window = 30
	for _, c := range []struct {
		offset int64
		want   int
	}{{-1, 0}, {0, 0}, {9, 0}, {10, 1}, {19, 1}, {20, 2}, {29, 2}, {30, 2}, {99, 2}} {
		if got := segmentOf(c.offset, window, 3); got != c.want {
			t.Errorf("segmentOf(%d) = %d, want %d", c.offset, got, c.want)
		}
	}
}

// TestWindowMetrics checks e2eOf: each window metric is taken over the
// whole window, with the segments' median, minimum and maximum beside it.
func TestWindowMetrics(t *testing.T) {
	w := windowResult{heapMB: 64}
	for i := 0; i <= segments; i++ {
		w.bounds = append(w.bounds, boundary{at: time.Duration(i) * time.Second})
	}
	// Segment s completes 100*(s+1) operations on 50*(s+1) ms of CPU and
	// sees latencies of 1..10 ms scaled by (s+1).
	var ops int64
	var cpu float64
	var all []float64
	for s := 0; s < segments; s++ {
		ops += int64(100 * (s + 1))
		cpu += float64(50 * (s + 1))
		w.bounds[s+1].ops, w.bounds[s+1].cpuMs = ops, cpu
		for i := 1; i <= 10; i++ {
			at := time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond
			w.samples = append(w.samples, sample{at: at, ms: float64(i * (s + 1))})
			all = append(all, float64(i*(s+1)))
		}
	}
	values, segs := e2eOf([]float64{0.3, 0.1, 0.2}, w)
	want := map[string]float64{
		"setup_s":        0.2,
		"latency_p50_ms": percentile(all, 50),
		"latency_p90_ms": percentile(all, 90),
		"ops_per_s":      float64(ops) / segments,
		"cpu_ms_per_op":  0.5,
		"heap_mb":        64,
	}
	for name, v := range want {
		if math.Abs(values[name]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, values[name], v)
		}
	}
	if len(values) != len(endToEnd) {
		t.Errorf("e2eOf yields %d metrics, the table names %d", len(values), len(endToEnd))
	}
	mid := float64(segments/2 + 1) // scale of the median segment
	if sp := segs["latency_p50_ms"]; sp != (spread{Median: 5 * mid, Min: 5, Max: 5 * segments}) {
		t.Errorf("latency_p50_ms segments = %+v", sp)
	}
	if sp := segs["ops_per_s"]; sp != (spread{Median: 100 * mid, Min: 100, Max: 100 * segments}) {
		t.Errorf("ops_per_s segments = %+v", sp)
	}
}

func TestSelfTimeAndReconciliation(t *testing.T) {
	parent := span{Name: "event", Start: 0, End: 100}
	tiled := []span{{Start: 0, End: 10}, {Start: 10, End: 40}, {Start: 40, End: 100}}
	if covered, summed := coverage(parent, tiled); parent.dur()-covered != 0 || summed != 100 {
		t.Errorf("a tiled parent has %d covered, %d summed, want 100 and 100", covered, summed)
	}
	if got := reconcileErrPct(parent, tiled); got != 0 {
		t.Errorf("reconcile error of a tiled parent = %v, want 0", got)
	}

	// Overlapping children count once; parts outside the parent do not count.
	ragged := []span{{Start: -5, End: 5}, {Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 90, End: 120}}
	if covered, summed := coverage(parent, ragged); parent.dur()-covered != 45 || summed != 65 { // covered: 5 + 40 + 10
		t.Errorf("self time = %d, summed = %d, want 45 and 65", parent.dur()-covered, summed)
	}
	// 45 uncovered plus the 10 covered twice.
	if got := reconcileErrPct(parent, ragged); got != 55 {
		t.Errorf("reconcile error = %v, want 55", got)
	}

	// A stage stamped out of order (its end before its start) leaves a gap
	// or an overlap although the durations still telescope to the total.
	inverted := []span{{Start: 0, End: 60}, {Start: 60, End: 40}, {Start: 40, End: 100}}
	if got := reconcileErrPct(parent, inverted); got != 20 {
		t.Errorf("reconcile error with an inverted stage = %v, want 20", got)
	}
	if got := reconcileErrPct(span{Start: 5, End: 5}, nil); got != 0 {
		t.Errorf("reconcile error of an empty parent = %v, want 0", got)
	}
}

// TestEventSpansReconcile checks the trace built from an event's stamps:
// four stages tiling due → received, and the layer metrics read off them.
func TestEventSpansReconcile(t *testing.T) {
	mk := func(id int, due, call, tap, commit, recvd int64) *event {
		ev := &event{id: id, probe: &probe{}, dueAt: due, call: call}
		ev.tap.Store(tap)
		ev.commit.Store(commit)
		ev.recvd.Store(recvd)
		return ev
	}
	ms := int64(time.Millisecond)
	evs := []*event{
		mk(0, 10*ms, 11*ms, 12*ms, 15*ms, 19*ms),
		mk(1, 30*ms, 30*ms, 32*ms, 38*ms, 40*ms),
		{id: 2},                              // verdict-neutral: no probe, no spans
		mk(3, 50*ms, 51*ms, 0, 55*ms, 56*ms), // event tap missed: left out
	}
	spans, n := eventSpans(evs)
	if n != 2 || len(spans) != 10 {
		t.Fatalf("eventSpans covers %d events with %d spans, want 2 and 10", n, len(spans))
	}
	for i, s := range spans {
		if (s.Parent == -1) != (s.Name == "event") || (s.Parent != -1 && spans[s.Parent].Event != s.Event) {
			t.Errorf("span %d (%s, event %d) has parent %d", i, s.Name, s.Event, s.Parent)
		}
	}
	m := spanLayers(spans)
	want := map[string]float64{
		"rvaas.ingest_ms_p50": 1, "rvaas.ingest_ms_p90": 2,
		"verifier.verify_ms_p50": 3, "verifier.verify_ms_p90": 6,
		"rvaas.notify_ms_p50": 2, "rvaas.notify_ms_p90": 4,
		"trace.reconcile_err_pct": 0,
	}
	for name, v := range want {
		if got, ok := m[name]; !ok || math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}

	// A commit stamped before the event tap must not reconcile.
	bad := []*event{mk(0, 10*ms, 11*ms, 15*ms, 12*ms, 19*ms)}
	spans, _ = eventSpans(bad)
	if got := spanLayers(spans)["trace.reconcile_err_pct"]; got <= 1 {
		t.Errorf("out-of-order stamps reconcile to %v%%, want more than 1", got)
	}
}

// TestFlipPlansKeepRulesInstalled replays each event workload's plan on
// its open-loop timetable: every probe must alternate install and remove,
// every rule must stay installed for at least minInstalled (an install and
// its remove inside one pass are coalesced and notify nobody), and the
// drain must remove exactly what is left.
func TestFlipPlansKeepRulesInstalled(t *testing.T) {
	for _, c := range []struct {
		name          string
		probes, group int
		flipsPerSec   float64
	}{
		{"flip-1k", 39, 39, flipRate},
		{"hub-10k", 39, hubGroup, hubRate / hubFlipEvery},
		{"sub-churn", 38, churnGroup, churnStreamRate},
	} {
		probes := make([]*probe, c.probes)
		for i := range probes {
			probes[i] = &probe{dst: topology.AccessPoint{HostIP: uint32(i + 1)}}
		}
		group := c.group
		fp := newFlipPlan(rand.New(rand.NewSource(3)), probes, group, func(*probe) topology.SwitchID { return 1 })
		gap := time.Duration(float64(time.Second) / c.flipsPerSec)
		installedAt := map[*probe]time.Duration{}
		shortest := time.Hour
		for i := 0; i < 1000; i++ {
			ev, now := fp.next(), time.Duration(i)*gap
			at, installed := installedAt[ev.probe]
			switch {
			case ev.install && installed, !ev.install && !installed:
				t.Fatalf("%s: event %d repeats install=%v on one probe", c.name, i, ev.install)
			case ev.install:
				installedAt[ev.probe] = now
			default:
				shortest = min(shortest, now-at)
				delete(installedAt, ev.probe)
			}
			if len(installedAt) > group {
				t.Fatalf("%s: %d rules installed at once, group is %d", c.name, len(installedAt), group)
			}
		}
		if shortest < minInstalled {
			t.Errorf("%s: a rule stays installed for only %v, want at least %v", c.name, shortest, minInstalled)
		}
		drain := fp.drain()
		if len(drain) != len(installedAt) {
			t.Errorf("%s: drain removes %d rules, %d are installed", c.name, len(drain), len(installedAt))
		}
		for _, ev := range drain {
			if _, ok := installedAt[ev.probe]; !ok || ev.install {
				t.Errorf("%s: drain event is not the remove of an installed rule", c.name)
			}
		}
	}
}

// TestQueryDeckMix checks the closed-loop mix is exact and seeded.
func TestQueryDeckMix(t *testing.T) {
	topo, err := topology.Linear(40, nil)
	if err != nil {
		t.Fatal(err)
	}
	aps := topo.AccessPoints()
	deck := queryDeck(rand.New(rand.NewSource(1)), aps, len(topo.EdgePorts()), querySource, 2000)
	counts := map[string]int{}
	for _, q := range deck {
		counts[q.kind.String()]++
		if q.check == nil {
			t.Fatalf("query %s has no answer check", q.kind)
		}
	}
	total := 0
	for kind, share := range queryMix {
		total += share
		if got, want := counts[kind.String()], len(deck)*share/queryMixTotal(); got != want {
			t.Errorf("%s: %d of %d queries, want %d", kind, got, len(deck), want)
		}
	}
	if total != queryMixTotal() {
		t.Errorf("mix sums to %d", total)
	}
	again := queryDeck(rand.New(rand.NewSource(1)), aps, len(topo.EdgePorts()), querySource, 2000)
	other := queryDeck(rand.New(rand.NewSource(2)), aps, len(topo.EdgePorts()), querySource, 2000)
	same, differs := true, false
	for i := range deck {
		same = same && deck[i].kind == again[i].kind && deck[i].constraints[0] == again[i].constraints[0]
		differs = differs || deck[i].kind != other[i].kind || deck[i].constraints[0] != other[i].constraints[0]
	}
	if !same || !differs {
		t.Errorf("deck: same seed reproduces=%v, another seed differs=%v", same, differs)
	}
}

func TestCompareVerdict(t *testing.T) {
	tight := spread{Median: 10, Min: 9.9, Max: 10.1}
	loose := spread{Median: 10, Min: 8, Max: 12}
	for _, c := range []struct {
		a, b   float64
		sa, sb spread
		better string
		want   string
	}{
		{10, 10.9, tight, tight, "lower", "ok"},
		{10, 11.5, tight, tight, "lower", "worse"},
		{10, 11.5, tight, loose, "lower", "unresolved"},
		{10, 5, tight, tight, "lower", "ok"},
		{10, 9.2, tight, tight, "higher", "ok"},
		{10, 8.5, tight, tight, "higher", "worse"},
		{0, 1, tight, tight, "lower", "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.sa, c.sb, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v→%v, %s is better) = %s, want %s", c.a, c.b, c.better, got, c.want)
		}
	}
}
