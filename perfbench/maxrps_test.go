package main

import (
	"errors"
	"testing"
	"time"
)

// fakeServer answers like one FIFO server of the given capacity behind a
// sender that waits for each answer, so it never drops work: beyond the
// capacity the sender falls further behind with every request.
func fakeServer(capacity float64, window time.Duration) func(rate float64) step {
	return func(rate float64) step {
		sched := schedule{rate: rate, senders: 1}
		shots := make([]shot, sched.count(window))
		svc := time.Duration(1e9 / capacity)
		var free time.Duration
		for i := range shots {
			due := sched.due(i)
			send := max(due, free)
			free = send + svc
			shots[i] = shot{late: send - due, lat: free - due, sent: true}
		}
		return newStep(rate, free, shots)
	}
}

func TestSearchFindsKnownCapacity(t *testing.T) {
	for _, capacity := range []float64{2500, 5000, 11000} {
		probe := fakeServer(capacity, 4*time.Second)
		lo := probe(capacity / 4)
		if !lo.pass() {
			t.Fatalf("capacity %v: a quarter of it failed: %+v", capacity, lo)
		}
		best, steps := searchMaxRate(lo, capacity, 8, probe)
		if len(steps) != 8 {
			t.Fatalf("%d probes, want 8", len(steps))
		}
		if best.rate > capacity || best.rate < 0.97*capacity {
			t.Errorf("capacity %v: found %v", capacity, best.rate)
		}
		if best.achieved < 0.95*best.rate || best.achieved > best.rate*1.01 {
			t.Errorf("capacity %v: achieved %v at offered %v", capacity, best.achieved, best.rate)
		}
	}
}

func TestSearchFailsAboveCapacity(t *testing.T) {
	probe := fakeServer(1000, 2*time.Second)
	if st := probe(1100); st.pass() || !st.backlog {
		t.Errorf("10%% over capacity passed: %+v", st)
	}
	lo := probe(900)
	best, _ := searchMaxRate(lo, 8000, 3, func(rate float64) step {
		st := probe(rate)
		st.failed++ // every probe above lo fails
		return st
	})
	if best.rate != lo.rate {
		t.Errorf("with every probe failing the search returned %v, want lo %v", best.rate, lo.rate)
	}
}

func TestStepCountsUnsentAsFailed(t *testing.T) {
	shots := []shot{{sent: true, lat: time.Millisecond}, {sent: true, err: errors.New("reset")}, {}}
	st := newStep(3, time.Second, shots)
	if st.sent != 2 || st.failed != 2 || st.achieved != 1 || st.pass() {
		t.Errorf("step = %+v; want 2 sent, 2 failed, 1 answered per second, not passing", st)
	}
}
