package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"andorsched/internal/core"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/serve"
	"andorsched/internal/sim"
	"andorsched/internal/workload"
)

// phases are the serve request phases exported on /metrics.
var phases = []string{"decode", "admit", "cache", "compile", "queue", "exec", "exec.mc", "encode"}

// perLayer lists the per-layer metrics every traced run reports, with
// their units; BENCHMARK.json lists the same names. A layer the workload
// does not exercise reads 0.
var perLayer = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"sim.section_ns", "ns"},
		{"exectime.sample_ns", "ns"},
	}
	for _, s := range schemes {
		m = append(m, struct{ name, unit string }{"core.run_ns." + s, "ns"})
	}
	m = append(m, []struct{ name, unit string }{
		{"core.run_ns.hetero-AS", "ns"},
		{"core.timing_violations", "count"},
		{"core.compile_us.cold", "us"},
		{"core.compile_us.warm", "us"},
		{"core.schedcache.hit_ratio", "ratio"},
		{"experiments.busy_s.figures", "s"},
		{"experiments.busy_s.ablations", "s"},
		{"experiments.busy_s.hetero", "s"},
		{"serve.pool_job_us", "us"},
		{"serve.inproc_us", "us"},
		{"serve.handler_us.p50", "us"},
		{"serve.handler_us.p99", "us"},
	}...)
	for _, p := range phases {
		m = append(m, struct{ name, unit string }{"serve.phase_us." + p, "us"},
			struct{ name, unit string }{"serve.phase_count." + p, "count"})
	}
	return append(m, []struct{ name, unit string }{
		{"serve.cache.hit_ratio", "ratio"},
		{"serve.cache.evictions", "count"},
		{"serve.rejections", "count"},
		{"serve.chunks_per_req", "count"},
		{"http.loopback_us", "us"},
		{"http.client_us.p50", "us"},
		{"http.client_us.p99", "us"},
		{"http.transport_us.p50", "us"},
		{"openloop.p50_ms", "ms"},
		{"openloop.tail_ms", "ms"},
		{"openloop.max_rps", "1/s"},
		{"loadgen.late_us.p50", "us"},
		{"loadgen.late_us.p99", "us"},
		{"runtime.cpu_us_per_op", "us"},
		{"runtime.alloc_kb_per_op", "KiB"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"ladder.delta_us.L1", "us"},
		{"ladder.delta_us.L2", "us"},
		{"ladder.delta_us.L3", "us"},
		{"ladder.delta_us.L4", "us"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// zeroLayers sets every per-layer metric to 0, for the workload and the
// ladder to overwrite with what they measure.
func zeroLayers(out *outcome) {
	for _, m := range perLayer {
		out.set(m.name, 0, m.unit)
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timeCalls calls f in batches of batch calls for at least d and returns
// the median over batches of the time per call, in ns.
func timeCalls(d time.Duration, batch int, f func() error) (float64, error) {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < d {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per), nil
}

const (
	rungTime  = 300 * time.Millisecond // per ladder rung
	microTime = 100 * time.Millisecond // per scheme, sampler and compile timing
)

// ladderBody is the one request every rung of the ladder serves: ATR on
// two Transmeta processors under GSS, runs=1, load 0.5. The on-line runs
// below L3 reseed with its seed, as the server does, so every rung
// simulates the same execution.
const (
	ladderBody = `{"workload":"atr","scheme":"GSS","seed":1,"load":0.5}`
	ladderSeed = 1
)

// engineSection is BenchmarkEngineSectionArena's input: a 64-task
// AND-parallel section on four processors.
func engineSection() (sim.Config, []*sim.Task) {
	tasks := make([]*sim.Task, 64)
	for i := range tasks {
		t := &sim.Task{Name: "t", WorkW: 5e6, WorkA: 4e6, Order: i, LFT: 1}
		if i >= 4 {
			t.Preds = []int{i - 4}
			tasks[i-4].Succs = append(tasks[i-4].Succs, i)
		}
		tasks[i] = t
	}
	return sim.Config{Platform: power.Transmeta5400(), Mode: sim.ByOrder, Procs: 4}, tasks
}

// runChecked is one on-line run that also counts Theorem-1 violations.
func runChecked(p *core.Plan, cfg core.RunConfig, a *core.Arena, res *core.RunResult, violations *int) error {
	if err := p.RunInto(cfg, a, res); err != nil {
		return err
	}
	if !res.MetDeadline || res.LSTViolations > 0 {
		*violations++
	}
	return nil
}

// measureLayers times each layer's public entry point from outside: the
// L0–L4 ladder on the one ATR/GSS request, every scheme's on-line run, the
// sampler and the off-line compile. Each timing is recorded as a span.
func measureLayers(out *outcome, spans *spanLog) error {
	timed := func(name string, d time.Duration, batch int, f func() error) (float64, error) {
		t0 := time.Now()
		ns, err := timeCalls(d, batch, f)
		spans.add(0, name, 0, -1, t0, time.Now())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		return ns, nil
	}
	violations := 0

	// L0: one engine section through a warmed arena.
	scfg, tasks := engineSection()
	sa := sim.NewArena()
	l0, err := timed("ladder.L0.sim", rungTime, 256, func() error { _, err := sa.Run(scfg, tasks); return err })
	if err != nil {
		return err
	}

	// L1: Plan.RunInto, the request's on-line run.
	g := workload.ATR(workload.DefaultATRConfig())
	plat, ov := power.Transmeta5400(), power.DefaultOverheads()
	plan, err := core.NewPlan(g, 2, plat, ov)
	if err != nil {
		return err
	}
	src := exectime.NewSource(1)
	sampler := exectime.NewSampler(src)
	arena := core.NewArena()
	var res core.RunResult
	runNs := map[string]float64{}
	for _, name := range schemes {
		sch, err := core.ParseScheme(name)
		if err != nil {
			return err
		}
		cfg := core.RunConfig{Scheme: sch, Deadline: plan.CTWorst / 0.5, Sampler: sampler}
		if runNs[name], err = timed("core.run."+name, microTime, 64, func() error {
			src.Reseed(ladderSeed)
			return runChecked(plan, cfg, arena, &res, &violations)
		}); err != nil {
			return err
		}
	}
	hplan, err := core.NewHeteroPlan(g, power.BigLittle(), ov, sim.EnergyGreedy)
	if err != nil {
		return err
	}
	hcfg := core.RunConfig{Scheme: core.AS, Deadline: hplan.CTWorst / 0.5, Sampler: sampler}
	hetero, err := timed("core.run.hetero-AS", microTime, 64, func() error {
		src.Reseed(ladderSeed)
		return runChecked(hplan, hcfg, arena, &res, &violations)
	})
	if err != nil {
		return err
	}
	gss := core.RunConfig{Scheme: core.GSS, Deadline: plan.CTWorst / 0.5}

	// L2: the L1 job handed to a one-worker pool.
	pool := serve.NewPool(1, 8, 128)
	ctx := context.Background()
	l2, err := timed("ladder.L2.pool", rungTime, 64, func() error {
		var runErr error
		err := pool.Do(ctx, func(_ context.Context, w *serve.Worker) {
			w.Src.Reseed(ladderSeed)
			cfg := gss
			cfg.Sampler = w.Sampler
			runErr = runChecked(plan, cfg, w.Arena, &w.Res, &violations)
		})
		return errors.Join(err, runErr)
	})
	pool.Close()
	if err != nil {
		return err
	}

	// L3: the service's handler in process, into a reused recorder.
	s := serve.New(serve.Config{})
	rd := strings.NewReader(ladderBody)
	req := httptest.NewRequest(http.MethodPost, "/v1/run", rd)
	rec := newRecorder()
	ladderReq := newRequest("/v1/run", ladderBody, 1, kindRun)
	l3, err := timed("ladder.L3.handler", rungTime, 64, func() error {
		rd.Reset(ladderBody)
		rec.reset()
		s.Handler().ServeHTTP(rec, req)
		return checkBody(ladderReq, rec.status, rec.body.Bytes())
	})
	s.Close()
	if err != nil {
		return err
	}

	// L4: the same request over loopback HTTP to a listening server.
	sv, err := startServer(nil)
	if err != nil {
		return err
	}
	c, err := dial(sv.addr)
	if err != nil {
		return errors.Join(err, sv.stop())
	}
	l4, err := timed("ladder.L4.http", rungTime, 64, func() error {
		status, body, err := c.do(ladderReq.wire)
		if err != nil {
			return err
		}
		return checkBody(ladderReq, status, body)
	})
	c.close()
	if err = errors.Join(err, sv.stop()); err != nil {
		return err
	}

	// The sampler: one SampleBatch over 64 tasks, per draw.
	wcet, acet, dst := make([]float64, 64), make([]float64, 64), make([]float64, 64)
	for i := range wcet {
		wcet[i], acet[i] = 1e-3*float64(i+1), 0.6e-3*float64(i+1)
	}
	sample, err := timed("exectime.sample", microTime, 256, func() error {
		sampler.SampleBatch(wcet, acet, dst)
		return nil
	})
	if err != nil {
		return err
	}

	// The off-line phase: with every memo cold (a fresh graph, no
	// schedule cache) and with a warm schedule cache.
	cold, err := timed("core.compile.cold", microTime, 8, func() error {
		_, err := core.NewPlanWithCache(g.Clone(), 2, plat, ov, nil)
		return err
	})
	if err != nil {
		return err
	}
	cache := schedcache.New(core.DefaultScheduleCacheCapacity)
	warm, err := timed("core.compile.warm", microTime, 8, func() error {
		_, err := core.NewPlanWithCache(g, 2, plat, ov, cache)
		return err
	})
	if err != nil {
		return err
	}

	out.set("sim.section_ns", l0, "ns")
	for name, ns := range runNs {
		out.set("core.run_ns."+name, ns, "ns")
	}
	out.set("core.run_ns.hetero-AS", hetero, "ns")
	out.set("core.timing_violations", float64(violations), "count")
	out.set("exectime.sample_ns", sample/64, "ns")
	out.set("core.compile_us.cold", cold/1e3, "us")
	out.set("core.compile_us.warm", warm/1e3, "us")
	l1 := runNs["GSS"]
	out.set("serve.pool_job_us", l2/1e3, "us")
	out.set("serve.inproc_us", l3/1e3, "us")
	out.set("http.loopback_us", l4/1e3, "us")
	out.set("ladder.delta_us.L1", (l1-l0)/1e3, "us")
	out.set("ladder.delta_us.L2", (l2-l1)/1e3, "us")
	out.set("ladder.delta_us.L3", (l3-l2)/1e3, "us")
	out.set("ladder.delta_us.L4", (l4-l3)/1e3, "us")
	out.note("ladder (ATR/GSS runs=1): L0 sim section %.2f µs, L1 RunInto %.2f µs, L2 Pool.Do %.2f µs, L3 handler %.2f µs, L4 loopback HTTP %.2f µs",
		l0/1e3, l1/1e3, l2/1e3, l3/1e3, l4/1e3)
	if violations > 0 {
		out.fail(fmt.Errorf("%d runs missed a deadline or an LST", violations))
	}
	return nil
}

// spanDurations returns the durations of the named spans, in µs, sorted.
func spanDurations(spans *spanLog, name string) []float64 {
	ss := spans.byName(name)
	ds := make([]float64, len(ss))
	for i, s := range ss {
		ds[i] = float64(s.dur()) / 1e3
	}
	sort.Float64s(ds)
	return ds
}

// transportUs pairs each client span with its handler span by request and
// returns the time the client waited outside the handler, in µs, sorted.
func transportUs(spans *spanLog) []float64 {
	handler := map[int64]time.Duration{}
	for _, s := range spans.byName("serve.handler") {
		handler[s.Req] = s.dur()
	}
	var ds []float64
	for _, s := range spans.byName("http.client") {
		if h, ok := handler[s.Req]; ok {
			ds = append(ds, float64(s.dur()-h)/1e3)
		}
	}
	sort.Float64s(ds)
	return ds
}
