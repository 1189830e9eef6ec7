package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"andorsched/internal/core"
	"andorsched/internal/exectime"
	"andorsched/internal/obs"
	"andorsched/internal/stats"
)

// Intra-request Monte-Carlo parallelism: a large-run /v1/run (or frame-
// heavy /v1/compare) is split into per-worker chunks of contiguous run
// ranges, executed as ordinary pool jobs (one arena per chunk, by
// construction: each chunk job owns its worker's state for its duration),
// then merged back in run order.
//
// Two invariants make the split invisible to clients:
//
//  1. Chunk-independent seeding. The serial loop draws run i's seed as the
//     i-th output of a master SplitMix64 stream. A chunk covering runs
//     [lo, hi) reproduces that exact subsequence with Reseed(seed) +
//     Skip(lo) — an O(1) state jump — so every run's random stream is
//     the same no matter how the request was chunked.
//  2. Run-order reduction. Chunks buffer per-run rows; the handler walks
//     them in run order, feeding the same core.MCStats reducer the serial
//     path uses. The floating-point operation sequence is then exactly
//     the serial one, so summaries are bit-identical — not merely close —
//     for every chunk count (differential- and fuzz-tested).
//
// Failure is all-or-nothing: any chunk error (queue rejection, context
// expiry, simulation failure) fails the whole request before a status
// line is written — a chunked stream never ends in a partial summary.

const (
	// maxRunChunks caps the explicit chunks field. It also bounds the
	// trace-span fan-out a single request can ask for (each chunk records
	// queue, exec and exec.mc spans; overflow beyond the span array is
	// counted, not lost silently — see obs.TraceRec).
	maxRunChunks = 64
	// minRunsPerChunk is the auto-chunking floor: below ~64 runs a chunk's
	// pool round trip (~10µs) stops being negligible next to its
	// simulation time (~2.4µs/run), so requests under two floors' worth
	// of runs stay serial.
	minRunsPerChunk = 64
)

// chunkCount decides how many chunks a runs-sized request splits into.
// requested > 0 is honored (capped at runs and maxRunChunks); 0 selects
// automatically: one chunk per worker, but never chunks smaller than
// minPerChunk and never more chunks than workers.
func chunkCount(runs, workers, requested, minPerChunk int) int {
	if requested > 0 {
		if requested > runs {
			requested = runs
		}
		if requested > maxRunChunks {
			requested = maxRunChunks
		}
		return requested
	}
	if workers <= 1 || runs < 2*minPerChunk {
		return 1
	}
	n := runs / minPerChunk
	if n > workers {
		n = workers
	}
	if n > maxRunChunks {
		n = maxRunChunks
	}
	return n
}

// chunkBounds returns chunk c's half-open run range under an even split of
// runs into nchunks.
func chunkBounds(runs, nchunks, c int) (lo, hi int) {
	return c * runs / nchunks, (c + 1) * runs / nchunks
}

// runChunkBuf holds one chunk's buffered per-run results. rows reuses its
// entries across requests (fillRow rewrites every field and re-slices the
// per-row slices), so a pooled buffer's steady-state cost is the fills,
// not allocations. lst carries LSTViolations, which RunRow does not (the
// wire format never exposed per-run LST counts and the summary needs
// them).
type runChunkBuf struct {
	rows []RunRow
	lst  []int
	err  error
}

// runChunkBufMaxRetained bounds the row capacity a buffer may take back
// into the pool; one-off giant requests should not pin megabytes.
const runChunkBufMaxRetained = 4096

var runChunkPool = sync.Pool{New: func() any { return new(runChunkBuf) }}

// prepare sizes the buffer for n runs and clears per-request state.
func (b *runChunkBuf) prepare(n int) {
	if cap(b.rows) >= n {
		b.rows = b.rows[:n]
	} else {
		b.rows = append(b.rows[:cap(b.rows)], make([]RunRow, n-cap(b.rows))...)
	}
	if cap(b.lst) >= n {
		b.lst = b.lst[:n]
	} else {
		b.lst = make([]int, n)
	}
	b.err = nil
}

func putRunChunkBuf(b *runChunkBuf) {
	if cap(b.rows) <= runChunkBufMaxRetained {
		runChunkPool.Put(b)
	}
}

// mcChunk builds the pool-job function for runs [lo, hi) of a chunked
// Monte-Carlo request. It mirrors monteCarlo's loop exactly — same seeding
// convention, same RunInto, same fillRow — minus the streaming callback:
// rows land in buf for the handler to merge. One exec.mc span per chunk
// records its completed-run count; chunks record concurrently into the
// request's trace, which the span array's atomic slot reservation permits.
func mcChunk(plan *core.Plan, scheme core.Scheme, deadline float64, worst bool,
	seed uint64, lo, hi int, buf *runChunkBuf) func(context.Context, *Worker) {
	return func(ctx context.Context, wk *Worker) {
		done := 0
		if rec := obs.TraceFromContext(ctx); rec != nil {
			t0 := rec.SinceStart()
			defer func() { rec.RecordOffsetN(PhaseExecMC, t0, int64(done)) }()
		}
		var master exectime.Source
		master.Reseed(seed)
		master.Skip(uint64(lo)) // run lo's seed is the lo-th master draw
		cfg := core.RunConfig{Scheme: scheme, Deadline: deadline}
		if worst {
			cfg.WorstCase = true
		} else {
			cfg.Sampler = wk.Sampler
		}
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				buf.err = err
				return
			}
			wk.Src.Reseed(master.Uint64())
			if err := plan.RunInto(cfg, wk.Arena, &wk.Res); err != nil {
				buf.err = err
				return
			}
			fillRow(&buf.rows[i-lo], i, &wk.Res)
			buf.lst[i-lo] = wk.Res.LSTViolations
			done++
		}
	}
}

// handleRunChunked is the fan-out arm of handleRun for runs > 1 and
// nchunks > 1: resolve the plan once on the handler goroutine, execute
// nchunks chunk jobs across the pool, then stream the buffered rows in run
// order with the summary reduced exactly as the serial path would. The
// response bytes are identical to the serial path's for any chunk count.
//
// Unlike the serial path — which commits its 200 before simulating and
// reports late failures as an {"error"} line — every chunk has completed
// before the first byte is written, so queue rejection, context expiry and
// simulation failure all still produce clean status codes here. The cost
// is buffering ~runs rows (bounded by MaxRuns) and losing mid-stream
// client-abandonment detection: an admitted chunked request runs to
// completion even if the client leaves, and the encode loop simply stops.
func (s *Server) handleRunChunked(w http.ResponseWriter, r *http.Request, req *RunRequest,
	scheme core.Scheme, runs, nchunks int) {
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

	// One handler-side exec span brackets the whole fan-out — buffer
	// preparation, chunk admission and the wait for the last chunk — so
	// the trace stays gap-free; the chunks' own queue/exec/exec.mc spans
	// nest inside it and show where the time actually went.
	rec := obs.TraceFromContext(r.Context())
	tFan := rec.Now()

	bufs := make([]*runChunkBuf, nchunks)
	for c := range bufs {
		lo, hi := chunkBounds(runs, nchunks, c)
		bufs[c] = runChunkPool.Get().(*runChunkBuf)
		bufs[c].prepare(hi - lo)
	}
	defer func() {
		for _, b := range bufs {
			putRunChunkBuf(b)
		}
	}()

	err := s.pool.fanOut(r.Context(), nchunks,
		func(c int) int64 {
			lo, hi := chunkBounds(runs, nchunks, c)
			return int64(hi - lo)
		},
		func(c int) func(context.Context, *Worker) {
			lo, hi := chunkBounds(runs, nchunks, c)
			return mcChunk(plan, scheme, deadline, req.Worst, req.Seed, lo, hi, bufs[c])
		})
	rec.RecordDetail(PhaseExec, tFan, "fan-out")
	if err != nil {
		s.checkPoolErr(w, err)
		return
	}
	for _, b := range bufs {
		if b.err != nil {
			if r.Context().Err() != nil {
				s.writeError(w, http.StatusServiceUnavailable, "request timed out mid-run")
			} else {
				s.writeError(w, http.StatusInternalServerError, b.err.Error())
			}
			return
		}
	}
	s.runs.Add(int64(runs))

	t0 := rec.SinceStart()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	var mc core.MCStats
	cfg := core.RunConfig{Scheme: scheme, Deadline: deadline}
	emitted := 0
	for _, b := range bufs {
		for i := range b.rows {
			row := &b.rows[i]
			// Same Add sequence, in the same global run order, as the serial
			// loop's Observe calls — the summary is bit-identical by
			// construction.
			mc.Add(row.FinishS, row.EnergyJ, row.ClassGrossJ, row.ClassIdleJ,
				row.SpeedChanges, b.lst[i], row.MetDeadline)
			if enc.Encode(row) != nil {
				return // client went away; a stream without a summary is incomplete
			}
			emitted++
			if flusher != nil && emitted%256 == 0 {
				flusher.Flush()
			}
		}
	}
	sum := mcSummary(&mc, cfg)
	_ = enc.Encode(&sum)
	rec.RecordOffset(PhaseEncode, t0)
	if flusher != nil {
		flusher.Flush()
	}
}

// cmpChunkBuf buffers one compare chunk's per-frame samples: the NPM
// baseline energy per frame, and frame-major per-scheme normalized energy,
// speed-change count and miss flag. The handler reduces them in frame
// order so the response matches the serial path byte for byte.
type cmpChunkBuf struct {
	base   []float64 // [frame]
	norm   []float64 // [frame*nschemes + scheme]
	chg    []int     // same layout
	missed []bool    // same layout
	err    error
}

var cmpChunkPool = sync.Pool{New: func() any { return new(cmpChunkBuf) }}

func (b *cmpChunkBuf) prepare(frames, nschemes int) {
	n := frames * nschemes
	grow := func(s []float64, n int) []float64 {
		if cap(s) >= n {
			return s[:n]
		}
		return make([]float64, n)
	}
	b.base = grow(b.base, frames)
	b.norm = grow(b.norm, n)
	if cap(b.chg) >= n {
		b.chg = b.chg[:n]
	} else {
		b.chg = make([]int, n)
	}
	if cap(b.missed) >= n {
		b.missed = b.missed[:n]
	} else {
		b.missed = make([]bool, n)
	}
	b.err = nil
}

func putCmpChunkBuf(b *cmpChunkBuf) {
	if cap(b.norm) <= runChunkBufMaxRetained {
		cmpChunkPool.Put(b)
	}
}

// cmpChunk builds the pool job for frames [lo, hi) of a chunked compare:
// the serial CRN loop over a skipped master stream, sampling into buf.
func cmpChunk(plan *core.Plan, schemes []core.Scheme, deadline float64,
	seed uint64, lo, hi int, buf *cmpChunkBuf) func(context.Context, *Worker) {
	return func(ctx context.Context, wk *Worker) {
		var master exectime.Source
		master.Reseed(seed)
		master.Skip(uint64(lo)) // frame lo's CRN seed is the lo-th master draw
		for f := lo; f < hi; f++ {
			if err := ctx.Err(); err != nil {
				buf.err = err
				return
			}
			// Common random numbers: every scheme replays the same actual
			// times and branch outcomes.
			wk.Src.Reseed(master.Uint64())
			if err := plan.RunSchemesInto(core.RunConfig{Deadline: deadline, Sampler: wk.Sampler},
				schemes, wk.Arena, &wk.Base, func(si int, res *core.RunResult) error {
					k := (f-lo)*len(schemes) + si
					buf.norm[k] = res.Energy() / wk.Base.Energy()
					buf.chg[k] = res.SpeedChanges
					buf.missed[k] = !res.MetDeadline
					return nil
				}); err != nil {
				buf.err = fmt.Errorf("frame %d: %w", f, err)
				return
			}
			buf.base[f-lo] = wk.Base.Energy()
		}
	}
}

// handleCompareChunked fans a compare's frames out across the pool and
// reduces the buffered samples in frame order — the same accumulator
// sequence as the serial loop, so the response is byte-identical for any
// chunk count.
func (s *Server) handleCompareChunked(w http.ResponseWriter, r *http.Request, req *CompareRequest,
	schemes []core.Scheme, plan *core.Plan, deadline float64, runs, nchunks int) {
	// Same gap-free bracketing as handleRunChunked: one exec span from
	// buffer prep to the last chunk's completion.
	rec := obs.TraceFromContext(r.Context())
	tFan := rec.Now()
	bufs := make([]*cmpChunkBuf, nchunks)
	for c := range bufs {
		lo, hi := chunkBounds(runs, nchunks, c)
		bufs[c] = cmpChunkPool.Get().(*cmpChunkBuf)
		bufs[c].prepare(hi-lo, len(schemes))
	}
	defer func() {
		for _, b := range bufs {
			putCmpChunkBuf(b)
		}
	}()

	perFrame := int64(len(schemes) + 1)
	err := s.pool.fanOut(r.Context(), nchunks,
		func(c int) int64 {
			lo, hi := chunkBounds(runs, nchunks, c)
			return int64(hi-lo) * perFrame
		},
		func(c int) func(context.Context, *Worker) {
			lo, hi := chunkBounds(runs, nchunks, c)
			return cmpChunk(plan, schemes, deadline, req.Seed, lo, hi, bufs[c])
		})
	rec.RecordDetail(PhaseExec, tFan, "fan-out")
	if !s.checkPoolErr(w, err) {
		return
	}
	for _, b := range bufs {
		if b.err != nil {
			if r.Context().Err() != nil {
				s.writeError(w, http.StatusServiceUnavailable, "request timed out mid-run")
			} else {
				s.writeError(w, http.StatusInternalServerError, b.err.Error())
			}
			return
		}
	}
	s.runs.Add(int64(runs) * perFrame)

	// Frame-order reduction, mirroring the serial loop's accumulator
	// sequence exactly: baseline, then each scheme's norm/chg/miss.
	norm := make([]stats.Acc, len(schemes))
	chg := make([]stats.Acc, len(schemes))
	missed := make([]int, len(schemes))
	var npmEnergy stats.Acc
	for _, b := range bufs {
		frames := len(b.base)
		for f := 0; f < frames; f++ {
			npmEnergy.Add(b.base[f])
			for si := range schemes {
				k := f*len(schemes) + si
				norm[si].Add(b.norm[k])
				chg[si].Add(float64(b.chg[k]))
				if b.missed[k] {
					missed[si]++
				}
			}
		}
	}
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
