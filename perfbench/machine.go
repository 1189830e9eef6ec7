package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// machine describes where a result was measured; every run prints it.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
}

func describeMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		m.Kernel = b.String()
	}
	return m
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSnap is a snapshot of the Go runtime counters the per-layer table
// reports as deltas.
type rtSnap struct {
	cpu        time.Duration
	allocBytes float64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func snapRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{cpu: cpuTime(), allocBytes: float64(s[0].Value.Uint64()),
		gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// heapPeak samples the bytes held by heap objects, live or not yet swept,
// every few milliseconds until stopped. It keeps the high-water mark of
// each second and reports their median, so one ill-timed collection does
// not decide the result.
type heapPeak struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peaks []float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var peak uint64
		since := time.Now()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			stopped := false
			select {
			case <-h.stop:
				stopped = true
			case <-t.C:
			}
			if stopped || time.Since(since) >= time.Second {
				if !stopped || len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak))
				}
				peak, since = 0, time.Now()
			}
			if stopped {
				return
			}
		}
	}()
	return h
}

// done stops sampling and returns the median per-second peak in MiB.
func (h *heapPeak) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return median(h.peaks) / (1 << 20)
}
