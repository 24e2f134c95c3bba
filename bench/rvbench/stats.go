package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of vs by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. vs need not be sorted; an empty input yields 0.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is a metric's value over the segments of one window: the reported
// value is the median segment, min and max are kept as the within-run
// spread compare uses to call a difference unresolved.
type spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func segmentSpread(segs []float64) spread {
	if len(segs) == 0 {
		return spread{}
	}
	sp := spread{Median: median(segs), Min: segs[0], Max: segs[0]}
	for _, v := range segs[1:] {
		sp.Min = math.Min(sp.Min, v)
		sp.Max = math.Max(sp.Max, v)
	}
	return sp
}

// segmentOf maps an offset from the window start to its segment index,
// clamping offsets at or past the end into the last segment.
func segmentOf(offset, window int64, segments int) int {
	if offset < 0 {
		return 0
	}
	i := int(offset * int64(segments) / window)
	if i >= segments {
		i = segments - 1
	}
	return i
}

// span is one timed interval of the trace: [Start, End) in nanoseconds
// since the run's epoch, caused by event Event, nested under the span at
// index Parent in the same trace (-1 for a root).
type span struct {
	Name   string
	Event  int
	Parent int
	Start  int64
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// coverage clips the children to the parent's interval and returns how
// much of it they cover (overlapping children are not counted twice) and
// the sum of their clipped durations. The parent's self time is its
// duration minus what is covered.
func coverage(parent span, children []span) (covered, summed int64) {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
			summed += b - a
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	end := parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return covered, summed
}

// reconcileErrPct is how far the children are from tiling the parent, as
// a percentage of the parent's duration: the part of the parent no child
// covers plus the part children cover more than once. 0 means the stages
// sum to the end-to-end interval exactly; a stage stamped out of order
// shows as a gap or an overlap.
func reconcileErrPct(parent span, children []span) float64 {
	if parent.dur() <= 0 {
		return 0
	}
	covered, summed := coverage(parent, children)
	return 100 * float64((parent.dur()-covered)+(summed-covered)) / float64(parent.dur())
}
