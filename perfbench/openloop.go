package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// schedule is an open-loop arrival schedule: request i is due i/rate
// seconds after the start, whatever happened to earlier requests, and
// sender k of n owns requests k, k+n, k+2n, ...
type schedule struct {
	rate    float64 // requests per second
	senders int
}

func (s schedule) due(i int) time.Duration {
	return time.Duration(float64(i) * 1e9 / s.rate)
}

// count is the number of requests due within window.
func (s schedule) count(window time.Duration) int {
	return int(math.Ceil(window.Seconds() * s.rate))
}

// shot is one scheduled request as the sender saw it. Latency runs from
// the due time, so a stall also charges the requests it delayed. Lateness
// has two parts: waiting for the connection's previous answer, which is
// the server's doing, and slip, the sender's own delay after the request
// could have gone out.
type shot struct {
	late time.Duration // due → send
	slip time.Duration // max(due, previous answer on the connection) → send
	lat  time.Duration // due → response read
	sent bool
	err  error
}

// backlogGrowth is how far the median of a delay may rise from the first
// quarter of a window to its last before the delay counts as growing.
const backlogGrowth = time.Millisecond

// growing reports whether delay, taken per shot, grows over the window:
// its median over the last quarter of the shots exceeds that over the
// first quarter by backlogGrowth.
func growing(shots []shot, delay func(shot) time.Duration) bool {
	q := len(shots) / 4
	if q == 0 {
		return false
	}
	quarterMedian := func(ss []shot) time.Duration {
		ds := make([]time.Duration, len(ss))
		for i, s := range ss {
			ds[i] = delay(s)
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		return ds[len(ds)/2]
	}
	return quarterMedian(shots[len(shots)-q:])-quarterMedian(shots[:q]) > backlogGrowth
}

// backlogGrows reports whether the requests fell behind the schedule:
// some request was never sent, or lateness grows.
func backlogGrows(shots []shot) bool {
	for _, s := range shots {
		if !s.sent {
			return true
		}
	}
	return growing(shots, func(s shot) time.Duration { return s.late })
}

// senderSlips reports whether the senders themselves fell behind: their
// own slip grows, whatever the server did.
func senderSlips(shots []shot) bool {
	return growing(shots, func(s shot) time.Duration { return s.slip })
}

// openLoop sends count(window) requests on sched from one connection per
// sender and returns them with the time from the start to the last
// answer. send(k, i) issues request i on sender k's connection and returns
// its error; it runs on a locked OS thread paced by nanosleep. A sender
// more than abort late stops, leaving the rest of its requests unsent.
func openLoop(sched schedule, window, abort time.Duration, send func(k, i int) error) ([]shot, time.Duration) {
	shots := make([]shot, sched.count(window))
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for k := 0; k < sched.senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			setTimerSlack()
			var free time.Time // when the connection's previous answer was read
			for i := k; i < len(shots); i += sched.senders {
				due := start.Add(sched.due(i))
				sleepUntil(due)
				t0 := time.Now()
				if t0.Sub(due) > abort {
					return
				}
				err := send(k, i)
				done := time.Now()
				ready := due
				if free.After(due) {
					ready = free
				}
				shots[i] = shot{late: t0.Sub(due), slip: t0.Sub(ready), lat: done.Sub(due), sent: true, err: err}
				free = done
			}
		}(k)
	}
	wg.Wait()
	return shots, time.Since(start)
}

// Linux pacing: the Go timer sleeps through the netpoller, whose wakeups
// land hundreds of microseconds late; clock_nanosleep on a thread whose
// timer slack is 1µs wakes within a few.
const (
	clockMonotonic   = 1
	prSetTimerSlack  = 29
	senderTimerSlack = 1000 // ns
)

func setTimerSlack() {
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, senderTimerSlack, 0)
}

func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_, _, e := syscall.Syscall6(syscall.SYS_CLOCK_NANOSLEEP, clockMonotonic, 0,
			uintptr(unsafe.Pointer(&ts)), 0, 0, 0)
		if e != 0 && e != syscall.EINTR {
			time.Sleep(d)
			return
		}
	}
}
