package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// schemes are the nine schemes /v1 accepts, in canonical order.
var schemes = []string{"NPM", "SPM", "GSS", "SS1", "SS2", "AS", "CLV", "ASP", "ORA"}

// warmApps are serve-warm's four applications, as AppSpec JSON members.
var warmApps = []string{
	`"workload":"atr"`,
	`"workload":"synthetic"`,
	`"workload":"atr","platform":"xscale"`,
	`"workload":"atr","hetero":"biglittle"`,
}

const (
	warmRate     = 4000.0 // open-loop req/s, ~40% of serve-warm's knee on a busy host
	churnRate    = 1000.0 // open-loop req/s, ~40% of serve-churn's knee on a busy host
	churnGraphs  = 512    // 4× the default 128-plan cache
	poolSize     = 8192   // distinct pregenerated requests
	keepEvery    = 64     // one answer (one cycle) in keepEvery is checked in-process
	searchRounds = 3      // max-rate searches per study; openloop.max_rps is their median
	searchSteps  = 6      // probes per search
	searchSpan   = 16.0   // the search's upper rate, as a multiple of the fixed rate
	setupReps    = 5      // set-ups per run; setup_s is their median

	// probeAbort is how late a search probe's sender may fall before the
	// probe has failed and stops sending.
	probeAbort = 100 * time.Millisecond
)

// senders is the serve workloads' connection count, and the open loop's
// thread count: at most nproc.
func senders() int { return min(2, runtime.NumCPU()) }

func warmRequests(rng *rand.Rand) []request {
	reqs := make([]request, poolSize)
	for j := range reqs {
		body := fmt.Sprintf(`{%s,"scheme":%q,"seed":%d}`, warmApps[(j/len(schemes))%len(warmApps)], schemes[j%len(schemes)], rng.Uint64())
		reqs[j] = newRequest("/v1/run", body, 1, kindRun)
	}
	return reqs
}

func churnRequests(rng *rand.Rand) []request {
	reqs := make([]request, poolSize)
	for j := range reqs {
		body := fmt.Sprintf(`{"workload":"random:%d","scheme":%q,"seed":%d}`, 1+rng.IntN(churnGraphs), schemes[j%len(schemes)], rng.Uint64())
		reqs[j] = newRequest("/v1/run", body, 1, kindRun)
	}
	return reqs
}

// mcCycles returns n repetitions of serve-mc's cycle with fresh seeds: one
// runs=2000 /v1/run per scheme, two runs=20000 /v1/run, an all-scheme
// /v1/compare of 200 frames and a 32-item /v1/batch. Two large runs make
// up 2 of the cycle's 13 requests, so the p90 falls inside their latency
// rather than on the edge between them and the rest, where one request
// more or less in the window moves it.
func mcCycles(rng *rand.Rand, n int) []request {
	var reqs []request
	for c := 0; c < n; c++ {
		for _, s := range schemes {
			reqs = append(reqs, newRequest("/v1/run", fmt.Sprintf(`{"workload":"atr","scheme":%q,"seed":%d,"runs":2000}`, s, rng.Uint64()), 2000, kindStream))
		}
		for _, s := range []string{"GSS", "AS"} {
			reqs = append(reqs, newRequest("/v1/run", fmt.Sprintf(`{"workload":"atr","scheme":%q,"seed":%d,"runs":20000}`, s, rng.Uint64()), 20000, kindStream))
		}
		// the server runs the NPM baseline besides each of the nine schemes
		reqs = append(reqs, newRequest("/v1/compare", fmt.Sprintf(`{"workload":"atr","schemes":["all"],"runs":200,"seed":%d}`, rng.Uint64()), 200*(len(schemes)+1), kindCompare))
		var items []string
		for i := 0; i < 32; i++ {
			items = append(items, fmt.Sprintf(`{"workload":"atr","scheme":%q,"seed":%d,"runs":64}`, schemes[i%len(schemes)], rng.Uint64()))
		}
		reqs = append(reqs, newRequest("/v1/batch", `{"items":[`+strings.Join(items, ",")+`]}`, 32*64, kindBatch))
	}
	return reqs
}

// serveWorkload is one traffic mix against the server. Its end-to-end
// metrics come from conns closed-loop clients, each sending its next
// request when the last is answered. Mixes with an open-loop rate also
// run the open-loop study in the traced run.
type serveWorkload struct {
	conns    int
	cycle    int     // requests per repetition of the mix; a client stops between cycles
	rate     float64 // open-loop study rate; 0 for none
	requests func(rng *rand.Rand) []request
	// warm brings a fresh server to steady state before timing starts.
	warm func(cs []*conn, reqs []request) error
}

var serveWorkloads = map[string]serveWorkload{
	"serve-warm": {conns: senders(), cycle: 1, rate: warmRate, requests: warmRequests,
		warm: func(cs []*conn, reqs []request) error {
			// every (application, scheme) pair once, so each plan is
			// compiled, then enough traffic to settle the runtime
			if err := closedLoop(cs[:1], reqs, len(warmApps)*len(schemes)); err != nil {
				return err
			}
			return closedLoop(cs, reqs, 2000)
		}},
	"serve-churn": {conns: senders(), cycle: 1, rate: churnRate, requests: churnRequests,
		warm: func(cs []*conn, reqs []request) error {
			return closedLoop(cs, reqs, 1024) // fills the plan cache and starts evicting
		}},
	"serve-mc": {conns: 1, cycle: mcCycleLen, requests: func(rng *rand.Rand) []request { return mcCycles(rng, 16) },
		warm: func(cs []*conn, reqs []request) error { return closedLoop(cs, reqs, mcCycleLen) }},
}

const mcCycleLen = 13

// setupServer starts setupReps servers, warming each, and keeps the last;
// setup_s is the median set-up time.
func setupServer(w serveWorkload, reqs []request, spans *spanLog) (*server, []*conn, float64, error) {
	var times []float64
	for r := 0; ; r++ {
		t0 := time.Now()
		sv, err := startServer(spans)
		if err != nil {
			return nil, nil, 0, err
		}
		cs, err := dialN(sv.addr, w.conns)
		if err == nil {
			err = w.warm(cs, reqs)
		}
		if err != nil {
			closeAll(cs)
			return nil, nil, 0, errors.Join(fmt.Errorf("set-up: %w", err), sv.stop())
		}
		times = append(times, time.Since(t0).Seconds())
		if r == setupReps-1 {
			return sv, cs, median(times), nil
		}
		closeAll(cs)
		if err := sv.stop(); err != nil {
			return nil, nil, 0, err
		}
	}
}

// traffic runs windows of one workload against one server and tallies
// attempts, failures and the answers kept for the in-process check.
type traffic struct {
	w     serveWorkload
	sv    *server
	cs    []*conn
	reqs  []request
	spans *spanLog
	next  int // index of the next request in reqs; also its trace id
	out   *outcome
	kept  []answered
	runs  int // simulated executions asked for by answered requests
}

// client is one connection's share of a window.
type client struct {
	lats      []float64 // ms, per answered request
	kept      []answered
	runs      int
	attempted int
	errs      []error
}

// send issues request i on connection k, records its client span, checks
// the answer and keeps a digest of one answer (one cycle) in keepEvery.
func (t *traffic) send(k, i int, c *client) error {
	r := t.reqs[i%len(t.reqs)]
	wire := r.wire
	if t.spans != nil {
		wire = r.wireWithID(int64(i))
	}
	c.attempted++
	t0 := time.Now()
	status, body, err := t.cs[k].do(wire)
	t1 := time.Now()
	t.spans.add(clientSpanID(int64(i)), "http.client", 0, int64(i), t0, t1)
	if err != nil {
		t.cs[k].close()
		if nc, derr := dial(t.sv.addr); derr == nil {
			t.cs[k] = nc
		}
	} else {
		err = checkBody(r, status, body)
	}
	if err != nil {
		c.errs = append(c.errs, err)
		return err
	}
	c.lats = append(c.lats, float64(t1.Sub(t0))/1e6)
	c.runs += r.runs
	if i%(keepEvery*t.w.cycle) < t.w.cycle {
		c.kept = append(c.kept, answered{req: r, sum: sha256.Sum256(body)})
	}
	return nil
}

// merge folds the clients' tallies into the run's, in connection order.
func (t *traffic) merge(cs []client) []float64 {
	var lats []float64
	for _, c := range cs {
		lats = append(lats, c.lats...)
		t.kept = append(t.kept, c.kept...)
		t.runs += c.runs
		t.out.attempted += c.attempted
		for _, err := range c.errs {
			t.out.fail(err)
		}
	}
	return lats
}

// closed runs every connection as a closed-loop client for window, each in
// whole cycles, and returns every answered request's latency in ms.
func (t *traffic) closed(window time.Duration) []float64 {
	n, base := len(t.cs), t.next
	cs := make([]client, n)
	sent := make([]int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for k := range t.cs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j%t.w.cycle != 0 || time.Since(start) < window; j++ {
				t.send(k, base+j*n+k, &cs[k])
				sent[k] = j + 1
			}
		}(k)
	}
	wg.Wait()
	t.next = base + n*slices.Max(sent)
	return t.merge(cs)
}

// open runs one open-loop window at rate and summarizes it; a sender more
// than abort late gives up on the rest.
func (t *traffic) open(rate float64, window, abort time.Duration) (step, []shot) {
	sched := schedule{rate: rate, senders: len(t.cs)}
	base := t.next
	cs := make([]client, len(t.cs))
	shots, elapsed := openLoop(sched, window, abort, func(k, i int) error {
		return t.send(k, base+i, &cs[k])
	})
	t.next += sched.count(window)
	t.merge(cs)
	return newStep(rate, elapsed, shots), shots
}

// check replays the kept requests in-process and counts each differing
// answer as a failed operation.
func (t *traffic) check() {
	t.out.attempted += len(t.kept)
	for _, err := range replay(t.sv.s, t.kept) {
		t.out.fail(err)
	}
}

func (t *traffic) close() error {
	closeAll(t.cs)
	return t.sv.stop()
}

// serveWindow is one measured closed-loop window of a serve workload.
type serveWindow struct {
	setupS   float64
	lat      dist // ms per request
	ops      int  // requests answered in the window
	elapsed  float64
	heapMiB  float64
	simRuns  int
	before   promSample
	after    promSample
	rt0, rt1 rtSnap
}

// measureServe sets up a server, runs the closed loop for d, checks the
// answers and, before closing, hands the server's traffic to study.
func measureServe(w serveWorkload, reqs []request, spans *spanLog, d time.Duration, out *outcome, study func(*traffic)) (*serveWindow, error) {
	sv, cs, setupS, err := setupServer(w, reqs, spans)
	if err != nil {
		return nil, err
	}
	t := &traffic{w: w, sv: sv, cs: cs, reqs: reqs, spans: spans, out: out}
	win := &serveWindow{setupS: setupS}
	if win.before, err = scrape(sv.addr); err != nil {
		return nil, errors.Join(err, t.close())
	}
	win.rt0 = snapRuntime()
	hp := startHeapPeak()
	t0 := time.Now()
	lats := t.closed(d)
	win.elapsed = time.Since(t0).Seconds()
	win.heapMiB = hp.done()
	win.rt1 = snapRuntime()
	win.lat, win.ops, win.simRuns = summarizeWindows(lats), len(lats), t.runs
	if win.after, err = scrape(sv.addr); err != nil {
		return nil, errors.Join(err, t.close())
	}
	if got := delta(win.before, win.after, "serve_runs"); int(got) != win.simRuns {
		out.fail(fmt.Errorf("the server counted %.0f runs, the answers carry %d", got, win.simRuns))
	}
	if study != nil {
		study(t)
	}
	t.check()
	return win, t.close()
}

func runServe(o options) (*outcome, error) {
	w := serveWorkloads[o.workload]
	reqs := w.requests(o.rng())
	out := newOutcome()
	if o.trace {
		return serveLayers(o, w, reqs, out)
	}
	win, err := measureServe(w, reqs, nil, o.window, out, nil)
	if err != nil {
		return nil, err
	}
	out.set("setup_s", win.setupS, "s")
	out.set("p50_ms", win.lat.P50, "ms")
	out.set("tail_ms", win.lat.Tail, "ms")
	out.set("max_ops_per_s", float64(win.ops)/win.elapsed, "1/s")
	out.set("sim_runs_per_s", float64(win.simRuns)/win.elapsed, "1/s")
	out.set("heap_peak_mb", win.heapMiB, "MiB")
	out.note("%s: %d closed-loop clients, %d requests, p50 %.3f ms, p%g %.3f ms (medians over windows)",
		o.workload, w.conns, win.lat.N, win.lat.P50, win.lat.TailP, win.lat.Tail)
	return out, nil
}

// openStudy is the open-loop part of a traced run: latency from due time
// at the workload's fixed rate for d, then the highest sustained rate,
// bisected in a further d. It runs untraced, and its numbers are per-layer
// ones: on a shared host, open-loop latency at a fixed rate follows the
// load other tenants put on the host too closely to gate on.
func openStudy(w serveWorkload, d time.Duration, out *outcome) func(*traffic) {
	return func(t *traffic) {
		fixed, shots := t.open(w.rate, d, d)
		var lats, late, slip []float64
		for _, s := range shots {
			if s.sent {
				lats = append(lats, float64(s.lat)/1e6)
				late = append(late, float64(s.late)/1e3)
				slip = append(slip, float64(s.slip)/1e3)
			}
		}
		if senderSlips(shots) {
			out.fail(fmt.Errorf("the senders fell behind their own schedule at %.0f req/s: the run is invalid", w.rate))
		}
		var bests []float64
		for r := 0; r < searchRounds; r++ {
			best, steps := searchMaxRate(fixed, w.rate*searchSpan, searchSteps, func(rate float64) step {
				// long enough for a deep tail at every rate probed
				probe := max(d/(searchRounds*searchSteps), time.Duration(1.05*windowSamples/rate*1e9))
				st, _ := t.open(rate, probe, probeAbort)
				return st
			})
			bests = append(bests, best.achieved)
			for _, st := range steps {
				out.note("  probe %.0f req/s: %d sent, p%g %.3f ms, backlog %v, failed %d, pass %v",
					st.rate, st.sent, tailLadder[0], st.tail, st.backlog, st.failed, st.pass())
			}
		}
		lat := summarizeWindows(lats)
		sort.Float64s(late)
		out.set("openloop.p50_ms", lat.P50, "ms")
		out.set("openloop.tail_ms", lat.Tail, "ms")
		out.set("openloop.max_rps", median(bests), "1/s")
		out.set("loadgen.late_us.p50", percentile(late, 50), "us")
		out.set("loadgen.late_us.p99", percentile(late, 99), "us")
		out.note("open loop at %.0f req/s: %d requests, latency from due time p50 %.3f ms, p%g %.3f ms; sender late p50 %.1f µs, own slip p50 %.1f µs; backlog %v",
			w.rate, lat.N, lat.P50, lat.TailP, lat.Tail, median(late), median(slip), fixed.backlog)
	}
}

// serveLayers is the traced run of a serve workload: half the time
// untraced, with the open-loop study after it, half traced on a fresh
// server, then the ladder.
func serveLayers(o options, w serveWorkload, reqs []request, out *outcome) (*outcome, error) {
	zeroLayers(out)
	var study func(*traffic)
	if w.rate > 0 {
		study = openStudy(w, o.window/4, out)
	}
	plain, err := measureServe(w, reqs, nil, o.window/2, out, study)
	if err != nil {
		return nil, err
	}
	spans := newSpanLog()
	win, err := measureServe(w, reqs, spans, o.window/2, out, nil)
	if err != nil {
		return nil, err
	}
	out.set("trace.overhead_pct", 100*ratio(win.lat.P50-plain.lat.P50, plain.lat.P50), "%")
	setServeLayers(out, win, spans)
	if err := measureLayers(out, spans); err != nil {
		return nil, err
	}
	return out, writeSpans(out, spans, o)
}

func setServeLayers(out *outcome, win *serveWindow, spans *spanLog) {
	b, a := win.before, win.after
	for _, p := range phases {
		c, s := histDelta(b, a, "serve_phase_latency_seconds", `phase="`+p+`"`)
		out.set("serve.phase_us."+p, ratio(s, c)*1e6, "us")
		out.set("serve.phase_count."+p, c, "count")
	}
	hits, misses := delta(b, a, "serve_cache_hits"), delta(b, a, "serve_cache_misses")
	out.set("serve.cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	out.set("serve.cache.evictions", delta(b, a, "serve_cache_evictions"), "count")
	out.set("serve.rejections", delta(b, a, "serve_http_rejections"), "count")
	sh, sm := delta(b, a, "core_schedcache_hits"), delta(b, a, "core_schedcache_misses")
	out.set("core.schedcache.hit_ratio", ratio(sh, sh+sm), "ratio")
	if c, _ := histDelta(b, a, "serve_phase_latency_seconds", `phase="exec.mc"`); c > 0 {
		out.set("serve.chunks_per_req", ratio(c, float64(win.ops)), "count")
	}
	client, handler := spanDurations(spans, "http.client"), spanDurations(spans, "serve.handler")
	out.set("http.client_us.p50", percentile(client, 50), "us")
	out.set("http.client_us.p99", percentile(client, 99), "us")
	out.set("serve.handler_us.p50", percentile(handler, 50), "us")
	out.set("serve.handler_us.p99", percentile(handler, 99), "us")
	out.set("http.transport_us.p50", percentile(transportUs(spans), 50), "us")
	setRuntimeLayers(out, win.rt0, win.rt1, win.ops)
}

func setRuntimeLayers(out *outcome, rt0, rt1 rtSnap, ops int) {
	out.set("runtime.cpu_us_per_op", ratio(float64(rt1.cpu-rt0.cpu)/1e3, float64(ops)), "us")
	out.set("runtime.alloc_kb_per_op", ratio((rt1.allocBytes-rt0.allocBytes)/1024, float64(ops)), "KiB")
	out.set("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio")
}

// writeSpans stores the traced run's spans in the build directory.
func writeSpans(out *outcome, spans *spanLog, o options) error {
	path, err := spans.write(filepath.Join(".bench_build", "spans"),
		fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err != nil {
		return err
	}
	out.note("spans: %s", path)
	return nil
}
