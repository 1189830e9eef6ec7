package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"andorsched/internal/core"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/exectime"
	"andorsched/internal/obs"
	"andorsched/internal/stats"
)

// planFor resolves an AppSpec to a compiled Plan through the plan-cache
// shards. The boolean reports a cache hit.
func (s *Server) planFor(ctx context.Context, spec *AppSpec) (*core.Plan, bool, *apiError) {
	ra, apiErr := s.resolveApp(spec)
	if apiErr != nil {
		return nil, false, apiErr
	}
	return s.resolvePlan(ctx, ra)
}

// compilePlan builds ra's plan against the given section-schedule cache
// shard (nil bypasses section caching).
func buildPlan(ra resolvedApp, sched *schedcache.Cache) (*core.Plan, error) {
	if ra.hp != nil {
		return core.NewHeteroPlanWithCache(ra.g, ra.hp, ra.key.ov, ra.place, sched)
	}
	plat, err := parsePlatformMemo(ra.key.platform)
	if err != nil {
		return nil, err
	}
	// The plan compile consults a section-schedule cache: a plan-cache
	// miss on a graph whose sections were seen before (same structure at a
	// different procs/platform, or an evicted plan) skips the canonical
	// simulations.
	return core.NewPlanWithCache(ra.g, ra.key.procs, plat, ra.key.ov, sched)
}

// ownerPlan resolves ra's plan in the executing worker's own shard,
// compiling on a miss and mapping failures onto API errors. It must run
// inside a job routed to homeFor(ra.key): the shard and its recency state
// are owner-only. Safe to record trace marks here — the submitter is
// blocked on the job until it finishes.
func (s *Server) ownerPlan(ctx context.Context, wk *Worker, ra resolvedApp) (*core.Plan, bool, *apiError) {
	rec := obs.TraceFromContext(ctx)
	plan, hit, err := wk.OwnerPlan(ra.key, func(sched *schedcache.Cache) (*core.Plan, error) {
		tc := rec.SinceStart()
		defer rec.RecordOffset(PhaseCompile, tc)
		return buildPlan(ra, sched)
	})
	if hit {
		rec.MarkDetail(PhaseCache, "hit")
	} else {
		rec.MarkDetail(PhaseCache, "miss")
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, false, errf(http.StatusServiceUnavailable, "timed out waiting for plan compile")
		}
		// Compile failures are application problems (invalid graph,
		// non-positive procs): the client's fault.
		return nil, false, errf(http.StatusBadRequest, "plan: %v", err)
	}
	return plan, hit, nil
}

// resolvePlan turns a resolved app into a compiled plan. It first
// consults the owning shard's published snapshot (a lock-free read,
// usable from any goroutine); on a miss the compile is routed to the owner
// with a blocking submit — the owner queue serializes compiles for its
// keys, so duplicate-compile suppression falls out of the routing.
func (s *Server) resolvePlan(ctx context.Context, ra resolvedApp) (*core.Plan, bool, *apiError) {
	rec := obs.TraceFromContext(ctx)
	if plan, _, ok := s.pool.planFromSnapshot(ra.key); ok {
		rec.MarkDetail(PhaseCache, "hit")
		return plan, true, nil
	}
	var plan *core.Plan
	var hit bool
	var apiErr *apiError
	err := s.pool.submit(ctx, s.pool.ownerQueue(ra.key), true, 1, func(ctx context.Context, wk *Worker) {
		plan, hit, apiErr = s.ownerPlan(ctx, wk, ra)
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, false, errf(http.StatusServiceUnavailable, "timed out waiting for plan compile")
		}
		return nil, false, errf(http.StatusServiceUnavailable, "plan compile unavailable: %v", err)
	}
	if apiErr != nil {
		return nil, false, apiErr
	}
	return plan, hit, nil
}

// handlePlan compiles (or fetches) a plan and returns its summary.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req struct{ AppSpec }
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	// Compiles are the most expensive thing a client can ask for; they sit
	// behind tenant admission like runs do (charging zero run tokens).
	release, ok := s.admit(w, r, 0)
	if !ok {
		return
	}
	defer release()
	plan, hit, apiErr := s.planFor(r.Context(), &req.AppSpec)
	if apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	resp := PlanResponse{
		App:         plan.Graph.Name,
		Nodes:       plan.Graph.Len(),
		Sections:    plan.NumSections(),
		Paths:       plan.Sections.NumPaths(),
		Procs:       plan.Procs,
		CTWorst:     plan.CTWorst,
		CTAvg:       plan.CTAvg,
		MinDeadline: plan.MinDeadline(),
		Cached:      hit,
	}
	if plan.Hetero != nil {
		resp.Platform = plan.Hetero.Name
		resp.Levels = plan.Hetero.MaxLevels()
		resp.Classes = plan.Hetero.NumClasses()
		resp.Placement = plan.Placement.Name()
	} else {
		resp.Platform = plan.Platform.Name
		resp.Levels = plan.Platform.NumLevels()
	}
	s.writeJSONTraced(w, r, http.StatusOK, resp)
}

// fillRow writes one run's result into row, reusing row.Path.
func fillRow(row *RunRow, run int, res *core.RunResult) {
	row.Run = run
	row.Scheme = res.Scheme.String()
	row.DeadlineS = res.Deadline
	row.FinishS = res.Finish
	row.MetDeadline = res.MetDeadline
	row.EnergyJ = res.Energy()
	row.ActiveJ = res.ActiveEnergy
	row.OverheadJ = res.OverheadEnergy
	row.IdleJ = res.IdleEnergy
	row.SpeedChanges = res.SpeedChanges
	// Heterogeneous runs carry per-class breakdowns; homogeneous results
	// have nil slices and the append keeps the row's nil (the fields stay
	// omitted and the warm homogeneous path stays allocation-free).
	row.ClassGrossJ = append(row.ClassGrossJ[:0], res.ClassGrossEnergy...)
	row.ClassIdleJ = append(row.ClassIdleJ[:0], res.ClassIdleEnergy...)
	row.Path = row.Path[:0]
	for _, c := range res.Path {
		row.Path = append(row.Path, c.Branch)
	}
}

// mcSummary renders an accumulated Monte-Carlo experiment as the stream's
// trailing summary row.
func mcSummary(mc *core.MCStats, cfg core.RunConfig) RunSummary {
	rs := RunSummary{
		Summary: true, Runs: mc.Done, Scheme: cfg.Scheme.String(), DeadlineS: cfg.Deadline,
		MeanEnergyJ: mc.Energy.Mean(), MeanFinishS: mc.Finish.Mean(), MaxFinishS: mc.Finish.Max(),
		DeadlineMisses: mc.Misses, LSTViolations: mc.LSTViolations, SpeedChanges: mc.SpeedChanges,
	}
	rs.MeanClassGrossJ, rs.MeanClassIdleJ = mc.ClassMeans()
	return rs
}

// handleRun executes an application once (JSON response) or runs=N times
// (NDJSON stream: one row per run, then a summary row; see streamRuns).
// The simulation itself runs on pool workers' arenas; this handler only
// decodes, resolves the plan and writes.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req RunRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	schemeName := req.Scheme
	if schemeName == "" {
		schemeName = "GSS"
	}
	scheme, err := core.ParseScheme(schemeName)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	runs := req.Runs
	if runs == 0 {
		runs = 1
	}
	if runs < 1 || runs > s.cfg.MaxRuns {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("runs %d outside [1, %d]", runs, s.cfg.MaxRuns))
		return
	}
	if req.Chunks < 0 || req.Chunks > maxRunChunks {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("chunks %d outside [0, %d]", req.Chunks, maxRunChunks))
		return
	}
	release, ok := s.admit(w, r, runs)
	if !ok {
		return
	}
	defer release()

	// Monte-Carlo requests run as bounded row blocks across the pool,
	// encoded by the workers and streamed in run order by this goroutine.
	if runs > 1 {
		plan, _, apiErr := s.planFor(r.Context(), &req.AppSpec)
		if apiErr != nil {
			s.writeError(w, apiErr.status, apiErr.msg)
			return
		}
		deadline, apiErr := resolveDeadline(plan.CTWorst, req.Deadline, req.Load)
		if apiErr != nil {
			s.writeError(w, apiErr.status, apiErr.msg)
			return
		}
		cfg := core.RunConfig{Scheme: scheme, Deadline: deadline, WorstCase: req.Worst}
		s.streamRuns(w, r, plan, cfg, req.Seed, runs,
			chunkCount(runs, s.pool.Workers(), req.Chunks, minRunsPerChunk))
		return
	}

	// Plan resolution peeks the owning shard's published snapshot (a
	// lock-free read): a warm key yields its immutable plan right here,
	// and the run executes on ANY worker via the shared queue — from
	// admission to encode without taking a lock or touching an atomic
	// another goroutine writes (the hit is credited in-job to the
	// executing worker's own counter). Only a cold key routes the whole
	// request to the shard owner chosen by the app's digest, which
	// compiles in its private shard and publishes a new snapshot; the
	// owner queue serializes compiles for its keys, so duplicate-compile
	// suppression is structural. out.jobErr carries resolution failures out
	// of the job (the job returns before committing any status line, so the
	// handler can still answer 400/503). The job's outputs share one heap
	// object, captured by the job closure, to keep the warm path's
	// allocation count down.
	var plan *core.Plan
	var deadline float64
	var out struct {
		row    RunRow
		jobErr *apiError
		runErr error
	}
	ra, apiErr := s.resolveApp(&req.AppSpec)
	if apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	if p, ok := s.pool.planPeek(ra.key); ok {
		obs.TraceFromContext(r.Context()).MarkDetail(PhaseCache, "hit")
		plan = p
		deadline, apiErr = resolveDeadline(plan.CTWorst, req.Deadline, req.Load)
		if apiErr != nil {
			s.writeError(w, apiErr.status, apiErr.msg)
			return
		}
	}
	// A request with its plan in hand (warm) rides the shared queue; only
	// unresolved requests are routed to the owner.
	routed := plan == nil
	fn := func(ctx context.Context, wk *Worker) {
		p, d := plan, deadline
		if routed {
			var apiErr *apiError
			if p, _, apiErr = s.ownerPlan(ctx, wk, ra); apiErr != nil {
				out.jobErr = apiErr
				return
			}
			if d, apiErr = resolveDeadline(p.CTWorst, req.Deadline, req.Load); apiErr != nil {
				out.jobErr = apiErr
				return
			}
		} else {
			wk.pw.hits.Add(1) // snapshot hit, credited to the executing worker
		}
		wk.Src.Reseed(req.Seed)
		cfg := core.RunConfig{Scheme: scheme, Deadline: d}
		if req.Worst {
			cfg.WorstCase = true
		} else {
			cfg.Sampler = wk.Sampler
		}
		if out.runErr = p.RunInto(cfg, wk.Arena, &wk.Res); out.runErr != nil {
			return
		}
		fillRow(&out.row, 0, &wk.Res)
	}
	q := &s.pool.shared
	if routed {
		q = s.pool.ownerQueue(ra.key)
	}
	if !s.checkPoolErr(w, s.pool.submit(r.Context(), q, false, 1, fn)) {
		return
	}
	if out.jobErr != nil {
		s.writeError(w, out.jobErr.status, out.jobErr.msg)
		return
	}
	if out.runErr != nil {
		s.writeError(w, http.StatusInternalServerError, out.runErr.Error())
		return
	}
	s.runs.Inc()
	s.writeJSONTraced(w, r, http.StatusOK, out.row)
}

// handleCompare runs every requested scheme over the same random numbers
// and reports energies normalized to NPM.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req CompareRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	schemes := make([]core.Scheme, 0, 9)
	if len(req.Schemes) == 0 || (len(req.Schemes) == 1 && req.Schemes[0] == "all") {
		schemes = append(schemes, core.Schemes...)
		schemes = append(schemes, core.ExtendedSchemes...)
	} else {
		for _, name := range req.Schemes {
			sc, err := core.ParseScheme(name)
			if err != nil {
				s.writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			schemes = append(schemes, sc)
		}
	}
	runs := req.Runs
	if runs == 0 {
		runs = 200
	}
	// runs·len(schemes) > MaxRuns, in a form that cannot overflow.
	if runs < 1 || runs > s.cfg.MaxRuns/len(schemes) {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("runs %d × %d schemes exceeds the limit of %d total executions",
				runs, len(schemes), s.cfg.MaxRuns))
		return
	}
	if req.Chunks < 0 || req.Chunks > maxRunChunks {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("chunks %d outside [0, %d]", req.Chunks, maxRunChunks))
		return
	}
	// A compare costs one NPM baseline plus one run per scheme per frame.
	release, ok := s.admit(w, r, runs*(len(schemes)+1))
	if !ok {
		return
	}
	defer release()
	plan, _, apiErr := s.planFor(r.Context(), &req.AppSpec)
	if apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	deadline, apiErr := resolveDeadline(plan.CTWorst, req.Deadline, req.Load)
	if apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}

	// Frames run through the block executor. Each costs one NPM baseline
	// plus one run per scheme, so a block holds proportionally fewer frames
	// than a /v1/run block holds runs, and the per-lane floor is lower.
	perFrame := len(schemes) + 1
	minFrames := max(8, minRunsPerChunk/perFrame)
	norm := make([]stats.Acc, len(schemes))
	chg := make([]stats.Acc, len(schemes))
	missed := make([]int, len(schemes))
	var npmEnergy stats.Acc
	err := s.pool.execBlocks(r.Context(), blockSeq{
		n:     runs,
		width: chunkCount(runs, s.pool.Workers(), req.Chunks, minFrames),
		maxK:  max(1, blockRuns/perFrame),
		cost:  int64(perFrame),
		run: func(ctx context.Context, wk *Worker, b *mcBlock) {
			compareBlock(ctx, wk, b, plan, schemes, deadline, req.Seed)
		},
		// Frame-order reduction: the serial loop's accumulator sequence.
		drain: func(b *mcBlock) error {
			for f, base := range b.base {
				npmEnergy.Add(base)
				for si, c := range b.cmp[f*len(schemes) : (f+1)*len(schemes)] {
					norm[si].Add(c.norm)
					chg[si].Add(float64(c.chg))
					if c.missed {
						missed[si]++
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		s.writeExecErr(w, r, err)
		return
	}
	s.runs.Add(int64(runs * perFrame))
	resp := CompareResponse{
		App: plan.Graph.Name, Runs: runs, DeadlineS: deadline,
		NPMEnergyJ: npmEnergy.Mean(),
	}
	for si, sc := range schemes {
		resp.Schemes = append(resp.Schemes, CompareScheme{
			Scheme:           sc.String(),
			MeanNormEnergy:   norm[si].Mean(),
			CI95:             norm[si].CI95(),
			MeanSpeedChanges: chg[si].Mean(),
			DeadlineMisses:   missed[si],
		})
	}
	s.writeJSONTraced(w, r, http.StatusOK, resp)
}

// compareBlock is /v1/compare's block job: the serial common-random-numbers
// loop over frames [b.lo, b.lo+b.n) of the skipped master stream. Every
// scheme replays the frame's actual times and branch outcomes, and is
// sampled against the frame's NPM baseline.
func compareBlock(ctx context.Context, wk *Worker, b *mcBlock, plan *core.Plan,
	schemes []core.Scheme, deadline float64, seed uint64) {
	var master exectime.Source
	master.Reseed(seed)
	master.Skip(uint64(b.lo)) // frame lo's CRN seed is the lo-th master draw
	cfg := core.RunConfig{Deadline: deadline, Sampler: wk.Sampler}
	each := func(_ int, res *core.RunResult) error {
		b.cmp = append(b.cmp, cmpSample{norm: res.Energy() / wk.Base.Energy(),
			chg: res.SpeedChanges, missed: !res.MetDeadline})
		return nil
	}
	for f := b.lo; f < b.lo+b.n; f++ {
		if b.err = ctx.Err(); b.err != nil {
			return
		}
		wk.Src.Reseed(master.Uint64())
		if err := plan.RunSchemesInto(cfg, schemes, wk.Arena, &wk.Base, each); err != nil {
			b.err = fmt.Errorf("frame %d: %w", f, err)
			return
		}
		b.base = append(b.base, wk.Base.Energy())
	}
}

// checkPoolErr maps pool submission failures onto responses; true means
// the job ran and the caller should proceed.
func (s *Server) checkPoolErr(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrQueueFull):
		s.writeRateLimited(w, s.pool.RetryAfter(), "server at capacity, retry later")
	case errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, http.StatusServiceUnavailable, "request timed out before a worker was available")
	default:
		s.writeError(w, http.StatusServiceUnavailable, err.Error())
	}
	return false
}

// handleHealthz reports liveness plus basic capacity numbers, refreshed
// through the same snapshot path the other read endpoints use.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.refreshStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"workers":        s.cfg.Workers,
		"queue_capacity": s.cfg.QueueSize,
		"in_flight":      s.pool.InFlight(),
		"queue_age_s":    s.pool.OldestQueueAge().Seconds(),
		"cached_plans":   s.pool.CachedPlans(),
		"tenants":        s.limiter.Len(),
	})
}

// handleMetrics exposes the registry in the Prometheus text exposition
// (0.0.4) or, when the Accept header asks for it, OpenMetrics — the only
// format in which exemplars (trace IDs on the phase histograms' +Inf
// buckets) are valid. Gauges sourced outside the registry (schedule
// cache, tenants, queue) are refreshed via the shared snapshot first. The
// body is rendered through the pooled-encoder buffer so a scrape neither
// allocates per line nor streams an error-prone partial response.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshStats()
	snap := s.metrics.Snapshot()
	b := jsonBufPool.Get().(*jsonBuf)
	b.buf.Reset()
	var err error
	contentType := "text/plain; version=0.0.4; charset=utf-8"
	if acceptsOpenMetrics(r.Header.Get("Accept")) {
		contentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"
		err = obs.WriteOpenMetrics(&b.buf, snap)
	} else {
		err = obs.WritePrometheus(&b.buf, snap)
	}
	if err != nil {
		jsonBufPool.Put(b)
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(b.buf.Bytes())
	if b.buf.Cap() <= jsonBufMaxRetained {
		jsonBufPool.Put(b)
	}
}

// acceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics text format (the way Prometheus does when exemplar scraping
// is on).
func acceptsOpenMetrics(accept string) bool {
	return strings.Contains(accept, "application/openmetrics-text")
}
