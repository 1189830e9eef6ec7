package main

import "testing"

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 90, true},
		{100, 90, true}, // rank 90: ten samples above
		{99, 75, true},  // rank 90: nine above, so p90 is not supported
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeStatesPercentileAndCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 … 1, unsorted on purpose
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500 || d.TailP != 90 || d.Tail != 900 {
		t.Errorf("summarize = %+v; want n 1000, p50 500, p90 900", d)
	}
	d = summarize(xs[:50])
	if d.N != 50 || d.TailP != 75 {
		t.Errorf("50 samples: %+v; want the tail at p75", d)
	}
	if xs[0] != 1000 {
		t.Error("summarize reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestSummarizeWindowsIgnoresBadWindows(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i%100 + 1) // every window: p50 50, p90 90
	}
	for i := 3000; i < 5000; i++ {
		xs[i] = 1000 // two windows of interference
	}
	d := summarizeWindows(xs)
	if d.N != 10000 || d.TailP != 90 || d.P50 != 50 || d.Tail != 90 {
		t.Errorf("summarizeWindows = %+v; want n 10000, p50 50, p90 90", d)
	}
	if whole := summarize(xs); whole.Tail != 1000 {
		t.Errorf("pooled p90 = %v; the bad windows should own it", whole.Tail)
	}
	if d := summarizeWindows(xs[:1500]); d != summarize(xs[:1500]) {
		t.Errorf("fewer than two windows: %+v, want the pooled summary", d)
	}
}
