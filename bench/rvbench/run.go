package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
)

// metricDef names one metric with its unit. The two tables below are the
// benchmark's whole vocabulary; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

// endToEnd are what a user of the system sees. latency is the workload's
// own user-visible delay — query round trip on query-closed, rule change
// due → verified verdict notification in the client's hands on the event
// workloads — and an operation is a query, a rule-change event, or (on
// sub-churn) one invariant registered or retired.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	// Pipeline spans of the traced window, per probe event.
	{"rvaas.ingest_ms_p50", "ms"}, {"rvaas.ingest_ms_p90", "ms"},
	{"verifier.verify_ms_p50", "ms"}, {"verifier.verify_ms_p90", "ms"},
	{"rvaas.notify_ms_p50", "ms"}, {"rvaas.notify_ms_p90", "ms"},
	{"trace.reconcile_err_pct", "%"},
	// Layers called directly on inputs captured from the workload.
	{"headerspace.reach_us", "us"}, {"headerspace.reach_allocs", "count"},
	{"openflow.compile_us", "us"}, {"openflow.compile_allocs", "count"},
	{"enclave.sign_us", "us"}, {"enclave.verify_us", "us"},
	{"wire.envelope_marshal_us", "us"}, {"wire.envelope_unmarshal_us", "us"},
	{"wire.notification_bytes", "B"},
	// Exact counts from public stats, per rule-change event unless noted.
	{"verifier.passes_per_event", "count"}, {"verifier.evals_per_event", "count"},
	{"verifier.delta_skipped_per_event", "count"}, {"verifier.index_dispatched_per_event", "count"},
	{"verifier.iso_points_swept_per_event", "count"}, {"verifier.iso_reuse_ratio", "ratio"},
	{"rvaas.compiles_per_event", "count"}, {"rvaas.compile_cache_hit_ratio", "ratio"},
	{"rvaas.notifications_per_event", "count"}, {"rvaas.notifications_dropped", "count"},
	{"rvaas.resyncs", "count"},
	{"client.notifications_dropped", "count"}, {"client.gap_events", "count"},
	{"history.vlog_dropped", "count"},
	{"rvaas.store_bytes_per_op", "B"},
	{"rvaas.restore_s", "s"},
	// Process and generator.
	{"proc.allocs_per_op", "count"}, {"proc.alloc_kb_per_op", "kB"},
	{"proc.gc_pause_ms", "ms"}, {"proc.goroutines", "count"},
	{"gen.late_ms_p99", "ms"}, {"gen.late_ms_max", "ms"}, {"gen.backlog_growth", "ratio"},
	{"latency_p99_ms", "ms"}, {"latency_over_400ms", "count"},
	// Traced window against the untraced window of the same run.
	{"trace.overhead_pct.latency_p50_ms", "%"}, {"trace.overhead_pct.latency_p90_ms", "%"},
	{"trace.overhead_pct.ops_per_s", "%"}, {"trace.overhead_pct.cpu_ms_per_op", "%"},
	{"trace.overhead_pct.heap_mb", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run as written to -out.
type result struct {
	Workload  string `json:"workload"`
	Why       string `json:"why"`
	Loop      string `json:"loop"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// FailedShare is (errors + timeouts + probe notifications missing +
	// client gap events) / attempted. A notification later than 400 ms is
	// counted in the latency_over_400ms layer metric instead.
	FailedShare float64 `json:"failed_share"`
	// Problems are integrity failures (Correct is false when there is
	// one); Notes explain the operations counted in Failed.
	Problems []string `json:"problems,omitempty"`
	Notes    []string `json:"notes,omitempty"`
	// Samples is how many latency samples the percentiles rest on.
	Samples  int               `json:"samples"`
	Metrics  map[string]metric `json:"metrics"`
	Segments map[string]spread `json:"segments"`
	// Layers holds the per-layer metrics: all of them after a traced run,
	// the exact counts and process figures after an untraced one.
	Layers map[string]metric `json:"layers"`
	Trace  *traceOut         `json:"trace,omitempty"`
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("rvbench: metric " + name + " is not in the tables")
}

// warmUp is how long the workload runs before the first measured window, so
// that caches are filled and lazy set-up is done when timing starts.
const warmUp = 2 * time.Second

// setupRepeats is how many times a run brings the deployment up; setup_s
// is the median, and the last one is the deployment measured.
const setupRepeats = 3

func workloadRNG(def *workloadDef, seed int64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(def.name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// runWorkload runs one workload end to end: set-up (repeated), one
// untraced window — plus, when traced, a second window with the taps
// installed on the same deployment — drain, correctness gates, restarts.
func runWorkload(def *workloadDef, seed int64, seconds int, traced bool) (*result, error) {
	res := &result{
		Workload: def.name, Why: def.why, Loop: def.loop,
		Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]metric{}, Segments: map[string]spread{}, Layers: map[string]metric{},
	}
	var (
		e      *env
		a      *actors
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		// The same seed gives every repeat the same inputs.
		e, a, err = def.setup(workloadRNG(def, seed))
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	// A traced run splits its measured time between a reference window and
	// a traced one on the same deployment, so every run costs the same.
	dur := time.Duration(seconds) * time.Second
	if traced {
		dur /= 2
	}
	e.measure(warmUp, a.window(e, warmUp))
	plain := e.measure(dur, a.window(e, dur))
	wins := []windowResult{plain}
	if traced {
		e.setTaps(true)
		wins = append(wins, e.measure(dur, a.window(e, dur)))
		e.setTaps(false)
	}
	measured := wins[len(wins)-1] // per-layer figures come from the traced window

	for _, w := range wins {
		res.Attempted += w.attempted
		res.Failed += w.failed + int(w.after.clientGaps-w.before.clientGaps)
	}
	att, failed := a.finish(e)
	res.Attempted += att
	res.Failed += failed

	var restores []float64
	for i := 0; i < a.restarts; i++ {
		res.Attempted++
		took, err := e.restart()
		if err != nil {
			// The windows are measured: report them, with the cycle failed.
			res.Failed++
			break
		}
		restores = append(restores, took.Seconds())
	}

	// End-to-end metrics always come from the untraced window.
	values, segs := e2eOf(setups, plain)
	for name, v := range values {
		res.Metrics[name] = metric{v, unitOf(endToEnd, name)}
	}
	res.Segments = segs
	res.Samples = len(plain.samples)

	layers := countLayers(measured)
	layers["rvaas.restore_s"] = median(restores)
	if traced {
		spans, ev := eventSpans(measured.events)
		for name, v := range spanLayers(spans) {
			layers[name] = v
		}
		for name, v := range e.directLayers() {
			layers[name] = v
		}
		tracedValues, _ := e2eOf(setups, measured)
		for _, d := range endToEnd {
			if d.name != "setup_s" { // set-up is not traced
				layers["trace.overhead_pct."+d.name] = pctOver(tracedValues[d.name], values[d.name])
			}
		}
		res.Trace = newTraceOut(spans, ev)
	}
	for name, v := range layers {
		res.Layers[name] = metric{v, unitOf(perLayer, name)}
	}

	res.Problems, res.Notes = e.problems, e.notes
	res.Correct = len(e.problems) == 0
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
	return res, nil
}

func pctOver(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (v - base) / base
}

// e2eOf computes the end-to-end metrics of one window. Each window metric
// is taken over the whole window — on this box that repeats better from
// run to run than the median of the segments' values — and also per
// segment, whose median, minimum and maximum are kept as the spread inside
// the run.
func e2eOf(setups []float64, w windowResult) (map[string]float64, map[string]spread) {
	bySeg := make([][]float64, segments)
	for _, s := range w.samples {
		i := segmentOf(int64(s.at), int64(w.bounds[segments].at), segments)
		bySeg[i] = append(bySeg[i], s.ms)
	}
	rates := func(lo, hi boundary) (opsPerS, cpuPerOp float64) {
		ops := float64(hi.ops - lo.ops)
		if ops == 0 {
			return 0, 0
		}
		return ops / (hi.at - lo.at).Seconds(), (hi.cpuMs - lo.cpuMs) / ops
	}
	per := map[string][]float64{}
	for i := 0; i < segments; i++ {
		opsPerS, cpuPerOp := rates(w.bounds[i], w.bounds[i+1])
		per["latency_p50_ms"] = append(per["latency_p50_ms"], percentile(bySeg[i], 50))
		per["latency_p90_ms"] = append(per["latency_p90_ms"], percentile(bySeg[i], 90))
		per["ops_per_s"] = append(per["ops_per_s"], opsPerS)
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], cpuPerOp)
	}
	segs := map[string]spread{
		"setup_s": segmentSpread(setups),
		"heap_mb": {Median: w.heapMB, Min: w.heapMB, Max: w.heapMB},
	}
	for name, vs := range per {
		segs[name] = segmentSpread(vs)
	}
	all := sampleValues(w.samples)
	opsPerS, cpuPerOp := rates(w.bounds[0], w.bounds[segments])
	values := map[string]float64{
		"setup_s":        segs["setup_s"].Median,
		"latency_p50_ms": percentile(all, 50),
		"latency_p90_ms": percentile(all, 90),
		"ops_per_s":      opsPerS,
		"cpu_ms_per_op":  cpuPerOp,
		"heap_mb":        w.heapMB,
	}
	return values, segs
}

// countLayers derives the per-layer metrics that need no tracing from a
// window's public counters: exact counts per event, process and generator
// figures.
func countLayers(w windowResult) map[string]float64 {
	b, a := w.before, w.after
	per := func(n float64, d int) float64 {
		if d == 0 {
			return 0
		}
		return n / float64(d)
	}
	ratio := func(part, rest uint64) float64 {
		if part+rest == 0 {
			return 0
		}
		return float64(part) / float64(part+rest)
	}
	events := len(w.events)
	ops := int(w.bounds[segments].ops)
	swept := a.sub.IsoPointsSwept - b.sub.IsoPointsSwept
	reused := a.sub.IsoPointsReused - b.sub.IsoPointsReused
	hits := a.compile.NetworkHits - b.compile.NetworkHits
	builds := a.compile.NetworkBuilds - b.compile.NetworkBuilds
	return map[string]float64{
		"verifier.passes_per_event":           per(float64(a.sub.Rechecks-b.sub.Rechecks), events),
		"verifier.evals_per_event":            per(float64(a.sub.Evaluated-b.sub.Evaluated), events),
		"verifier.delta_skipped_per_event":    per(float64(a.sub.DeltaSkipped-b.sub.DeltaSkipped), events),
		"verifier.index_dispatched_per_event": per(float64(a.sub.IndexDispatched-b.sub.IndexDispatched), events),
		"verifier.iso_points_swept_per_event": per(float64(swept), events),
		"verifier.iso_reuse_ratio":            ratio(reused, swept),
		"rvaas.compiles_per_event":            per(float64(a.compile.SwitchCompiles-b.compile.SwitchCompiles), events),
		"rvaas.compile_cache_hit_ratio":       ratio(hits, builds),
		"rvaas.notifications_per_event":       per(float64(a.sub.NotificationsSent-b.sub.NotificationsSent), events),
		"rvaas.notifications_dropped":         float64(a.sub.NotificationsDropped - b.sub.NotificationsDropped),
		"rvaas.resyncs":                       float64(a.ctl.Resyncs - b.ctl.Resyncs),
		"client.notifications_dropped":        float64(a.clientDrop - b.clientDrop),
		"client.gap_events":                   float64(a.clientGaps - b.clientGaps),
		"history.vlog_dropped":                float64(a.vlogDrop - b.vlogDrop),
		"proc.allocs_per_op":                  per(float64(a.mem.Mallocs-b.mem.Mallocs), ops),
		"proc.alloc_kb_per_op":                per(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), ops) / 1024,
		"proc.gc_pause_ms":                    float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6,
		"proc.goroutines":                     float64(w.goroutines),
		"gen.late_ms_p99":                     percentile(w.lateMs, 99),
		"gen.late_ms_max":                     percentile(w.lateMs, 100),
		"gen.backlog_growth":                  backlogGrowth(w),
		"latency_p99_ms":                      percentile(sampleValues(w.samples), 99),
		"latency_over_400ms":                  float64(w.overLate),
		"rvaas.store_bytes_per_op":            per(a.writeBytes-b.writeBytes, ops),
	}
}

func sampleValues(ss []sample) []float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = s.ms
	}
	return vs
}

// backlogGrowth is, over the probe events due in the window's last
// segment, the share whose verdict had not reached the client when the
// segment ended, minus the same share for the segment before: positive
// when the open-loop rate is not sustained.
func backlogGrowth(w windowResult) float64 {
	outstanding := func(seg int) float64 {
		end := int64(w.bounds[seg+1].at)
		sent, open := 0, 0
		for _, ev := range w.events {
			if ev.probe == nil || segmentOf(int64(ev.due), int64(w.bounds[segments].at), segments) != seg {
				continue
			}
			sent++
			if r := ev.recvd.Load(); r == 0 || r-ev.dueAt+int64(ev.due) > end {
				open++
			}
		}
		if sent == 0 {
			return 0
		}
		return float64(open) / float64(sent)
	}
	return outstanding(segments-1) - outstanding(segments-2)
}

// eventSpans builds the trace of the traced window: per probe event a root span
// (due → verified notification received) over four stages that tile it.
// It returns the spans and the number of events they cover.
func eventSpans(evs []*event) ([]span, int) {
	var out []span
	n := 0
	for _, ev := range evs {
		tap, commit, recvd := ev.tap.Load(), ev.commit.Load(), ev.recvd.Load()
		if ev.probe == nil || tap == 0 || commit == 0 || recvd == 0 {
			continue
		}
		n++
		root := len(out)
		out = append(out,
			span{"event", ev.id, -1, ev.dueAt, recvd},
			span{"gen.late", ev.id, root, ev.dueAt, ev.call},
			span{"rvaas.ingest", ev.id, root, ev.call, tap},
			span{"verifier.verify", ev.id, root, tap, commit},
			span{"rvaas.notify", ev.id, root, commit, recvd},
		)
	}
	return out, n
}

// spanLayers reduces the trace to the per-layer span metrics.
func spanLayers(spans []span) map[string]float64 {
	durs := map[string][]float64{}
	var errs []float64
	for i := 0; i < len(spans); i++ {
		if spans[i].Parent != -1 {
			continue
		}
		j := i + 1
		for j < len(spans) && spans[j].Parent == i {
			durs[spans[j].Name] = append(durs[spans[j].Name], float64(spans[j].dur())/1e6)
			j++
		}
		errs = append(errs, reconcileErrPct(spans[i], spans[i+1:j]))
	}
	m := map[string]float64{"trace.reconcile_err_pct": percentile(errs, 100)}
	for _, st := range []struct{ span, metric string }{
		{"rvaas.ingest", "rvaas.ingest_ms"},
		{"verifier.verify", "verifier.verify_ms"},
		{"rvaas.notify", "rvaas.notify_ms"},
	} {
		m[st.metric+"_p50"] = percentile(durs[st.span], 50)
		m[st.metric+"_p90"] = percentile(durs[st.span], 90)
	}
	return m
}

// maxTraceSpans bounds the trace written to -out.
const maxTraceSpans = 500

// traceOut is the trace as written to -out: one row per span,
// [name index, event id, parent row or -1, start µs, end µs].
type traceOut struct {
	Names  []string   `json:"names"`
	Events int        `json:"events"`
	Total  int        `json:"spans_total"`
	Spans  [][5]int64 `json:"spans"`
}

func newTraceOut(spans []span, events int) *traceOut {
	t := &traceOut{Events: events, Total: len(spans)}
	idx := map[string]int{}
	for _, s := range spans {
		if _, ok := idx[s.Name]; !ok {
			idx[s.Name] = 0
			t.Names = append(t.Names, s.Name)
		}
	}
	sort.Strings(t.Names)
	for i, n := range t.Names {
		idx[n] = i
	}
	if len(spans) > maxTraceSpans {
		spans = spans[:maxTraceSpans]
	}
	for _, s := range spans {
		t.Spans = append(t.Spans, [5]int64{int64(idx[s.Name]), int64(s.Event), int64(s.Parent), s.Start / 1e3, s.End / 1e3})
	}
	return t
}
