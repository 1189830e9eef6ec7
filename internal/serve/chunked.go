package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"andorsched/internal/core"
	"andorsched/internal/exectime"
	"andorsched/internal/obs"
	"andorsched/internal/stats"
)

// Intra-request Monte-Carlo parallelism for /v1/compare: a frame-heavy
// compare is split into per-worker chunks of contiguous frame ranges,
// executed as ordinary pool jobs (one arena per chunk, by construction:
// each chunk job owns its worker's state for its duration), then reduced
// back in frame order. /v1/run's runs > 1 path shares the width policy
// (chunkCount) but executes through the block executor in mcexec.go.
//
// Two invariants make the split invisible to clients:
//
//  1. Chunk-independent seeding. The serial loop draws frame i's seed as
//     the i-th output of a master SplitMix64 stream. A chunk covering
//     frames [lo, hi) reproduces that exact subsequence with Reseed(seed)
//     + Skip(lo) — an O(1) state jump — so every frame's random stream is
//     the same no matter how the request was chunked.
//  2. Frame-order reduction. Chunks buffer per-frame samples; the handler
//     walks them in frame order, feeding the same accumulators the serial
//     path uses. The floating-point operation sequence is then exactly
//     the serial one, so responses are bit-identical — not merely close —
//     for every chunk count (differential-tested).
//
// Failure is all-or-nothing: any chunk error (queue rejection, context
// expiry, simulation failure) fails the whole request before a status
// line is written.

const (
	// maxRunChunks caps the explicit chunks field. It also bounds the
	// trace-span fan-out a single request can ask for (each compare chunk
	// records queue and exec spans, each /v1/run lane one exec.mc span;
	// overflow beyond the span array is counted, not lost silently — see
	// obs.TraceRec).
	maxRunChunks = 64
	// minRunsPerChunk is the auto-chunking floor: below ~64 runs a chunk's
	// pool round trip (~10µs) stops being negligible next to its
	// simulation time (~2.4µs/run), so requests under two floors' worth
	// of runs stay serial.
	minRunsPerChunk = 64
)

// chunkCount decides how many chunks a runs-sized request splits into —
// for /v1/run, its parallel width: how many blocks may be queued or
// running at once. requested > 0 is honored (capped at runs and
// maxRunChunks); 0 selects automatically: one chunk per worker, but never
// chunks smaller than minPerChunk and never more chunks than workers.
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

// cmpChunkBufMaxRetained bounds the samples a buffer may take back into
// the pool; one-off giant requests should not pin megabytes.
const cmpChunkBufMaxRetained = 4096

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
	if cap(b.norm) <= cmpChunkBufMaxRetained {
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
	// One handler-side exec span brackets the whole fan-out — buffer
	// preparation, chunk admission and the wait for the last chunk — so
	// the trace stays gap-free; the chunks' own queue/exec spans nest
	// inside it and show where the time actually went.
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
