package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail read from fewer samples is one outlier.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first. The ladder stops at p90: on a small shared host the p99 of a
// sub-millisecond request is set by the host descheduling the benchmark's
// CPUs, and its run-to-run spread is wider than any bound a regression
// check could use. The traced run still reports p99s per layer.
var tailLadder = []float64{90, 75, 50}

// rank is the 1-based nearest-rank index of percentile p among n samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples above it, or false when none has.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// median returns the median of xs (the mean of the middle pair for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// dist summarizes a latency sample the way every timing is reported: the
// median and the highest supported tail percentile, with the sample count.
type dist struct {
	N     int
	P50   float64
	TailP float64 // the percentile Tail is read at; 0 when n is too small
	Tail  float64
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: percentile(s, 50)}
	if p, ok := tailPercentile(len(s)); ok {
		d.TailP, d.Tail = p, percentile(s, p)
	} else {
		d.Tail = percentile(s, 100)
	}
	return d
}

// Latency samples are cut into consecutive windows of at least
// windowSamples samples, at most maxWindows of them, and a run reports the
// median over its windows of each window's percentile: a burst of
// interference from outside the benchmark then moves one window, not the
// result. A window of windowSamples has a hundred samples above its p90.
const (
	windowSamples = 1000
	maxWindows    = 10
)

// summarizeWindows is summarize applied per window, in sample order, with
// the median across windows of the median and of the tail. N stays the
// total count; TailP is the percentile every window supports.
func summarizeWindows(xs []float64) dist {
	k := min(len(xs)/windowSamples, maxWindows)
	if k <= 1 {
		return summarize(xs)
	}
	var p50s, tails []float64
	d := dist{N: len(xs), TailP: 100}
	for w := 0; w < k; w++ {
		wd := summarize(xs[w*len(xs)/k : (w+1)*len(xs)/k])
		p50s, tails = append(p50s, wd.P50), append(tails, wd.Tail)
		d.TailP = min(d.TailP, wd.TailP)
	}
	d.P50, d.Tail = median(p50s), median(tails)
	return d
}
