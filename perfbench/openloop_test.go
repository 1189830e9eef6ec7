package main

import (
	"testing"
	"time"
)

func TestScheduleIsOpen(t *testing.T) {
	s := schedule{rate: 4000, senders: 2}
	if got := s.count(time.Second); got != 4000 {
		t.Fatalf("count(1s) = %d, want 4000", got)
	}
	if got := s.count(1500 * time.Microsecond); got != 6 {
		t.Fatalf("count(1.5ms) = %d, want 6 (due at 0, 250, …, 1250µs)", got)
	}
	for i := 0; i < 10; i++ {
		if got, want := s.due(i), time.Duration(i)*250*time.Microsecond; got != want {
			t.Errorf("due(%d) = %v, want %v", i, got, want)
		}
	}
}

func lateShots(late func(i int) time.Duration, n int) []shot {
	shots := make([]shot, n)
	for i := range shots {
		shots[i] = shot{late: late(i), lat: late(i) + 100*time.Microsecond, sent: true}
	}
	return shots
}

func TestBacklogGrows(t *testing.T) {
	steady := func(i int) time.Duration { return time.Duration(5+i%7) * time.Microsecond }
	if backlogGrows(lateShots(steady, 1000)) {
		t.Error("steady lateness reported as a growing backlog")
	}
	spike := func(i int) time.Duration {
		if i > 900 && i < 910 {
			return 20 * time.Millisecond
		}
		return steady(i)
	}
	if backlogGrows(lateShots(spike, 1000)) {
		t.Error("one stall reported as a growing backlog")
	}
	growing := func(i int) time.Duration { return time.Duration(i) * 5 * time.Microsecond }
	if !backlogGrows(lateShots(growing, 1000)) {
		t.Error("lateness growing to 5ms not reported")
	}
	// A slow server makes requests late without the senders slipping.
	slow := lateShots(growing, 1000)
	if senderSlips(slow) {
		t.Error("a slow server reported as senders slipping")
	}
	for i := range slow {
		slow[i].slip = slow[i].late
	}
	if !senderSlips(slow) {
		t.Error("senders slipping 5ms not reported")
	}
	unsent := lateShots(steady, 1000)
	unsent[999].sent = false
	if !backlogGrows(unsent) {
		t.Error("a request never sent not reported")
	}
}

// TestOpenLoopKeepsSchedule runs the real sender against a no-op send and
// checks that every request goes out, in schedule order per sender, close
// to its due time.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	sched := schedule{rate: 2000, senders: 2}
	var order [2][]int
	shots, elapsed := openLoop(sched, 200*time.Millisecond, time.Second, func(k, i int) error {
		order[k] = append(order[k], i)
		return nil
	})
	if len(shots) != 400 || elapsed < 199*time.Millisecond {
		t.Fatalf("%d shots in %v; want 400 in at least 199ms", len(shots), elapsed)
	}
	for k, is := range order {
		for j, i := range is {
			if i != k+2*j {
				t.Fatalf("sender %d sent %d as its %dth request", k, i, j)
			}
		}
	}
	if backlogGrows(shots) || senderSlips(shots) {
		t.Error("a no-op server fell behind")
	}
}
