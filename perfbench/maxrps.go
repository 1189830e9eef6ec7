package main

import (
	"math"
	"time"
)

// tailLimitMs is the latency limit of the open-loop workloads: a rate is
// sustained when the tail latency from due time (tailLadder[0]) stays
// within it, no request fails and the sender backlog does not grow.
// BENCHMARK.json states it too.
const tailLimitMs = 5.0

// step is one open-loop window at a fixed offered rate.
type step struct {
	rate     float64 // offered, requests per second
	achieved float64 // requests answered without error per second, start to last answer
	tail     float64 // ms from due time; +Inf when the sample cannot show it
	sent     int
	failed   int
	backlog  bool
}

// newStep summarizes a window's shots, answered within elapsed; a request
// not sent counts as failed.
func newStep(rate float64, elapsed time.Duration, shots []shot) step {
	st := step{rate: rate, backlog: backlogGrows(shots)}
	lats := make([]float64, 0, len(shots))
	ok := 0
	for _, s := range shots {
		switch {
		case !s.sent:
			st.failed++
			continue
		case s.err != nil:
			st.failed++
		default:
			ok++
		}
		st.sent++
		lats = append(lats, float64(s.lat)/1e6)
	}
	st.tail = math.Inf(1)
	if d := summarize(lats); d.TailP == tailLadder[0] {
		st.tail = d.Tail
	}
	st.achieved = float64(ok) / elapsed.Seconds()
	return st
}

func (s step) pass() bool {
	return s.failed == 0 && !s.backlog && s.tail <= tailLimitMs
}

// searchMaxRate bisects the offered rate in log space between lo, which
// passed, and hi, for iters probes, and returns the highest passing step
// (lo when every probe failed) with every step probed.
func searchMaxRate(lo step, hi float64, iters int, probe func(rate float64) step) (step, []step) {
	best := lo
	var steps []step
	l, h := lo.rate, hi
	for i := 0; i < iters; i++ {
		mid := math.Sqrt(l * h)
		st := probe(mid)
		steps = append(steps, st)
		if st.pass() {
			best, l = st, mid
		} else {
			h = mid
		}
	}
	return best, steps
}
