package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"andorsched/internal/core"
	"andorsched/internal/exectime"
	"andorsched/internal/obs"
)

// The Monte-Carlo block executor behind every multi-run endpoint: /v1/run
// with runs > 1, /v1/compare and /v1/batch. A request's work is a
// sequence of units — runs, or compare frames — cut into blocks of at
// most k consecutive units; each block is an ordinary pool job that
// executes its units on the worker's arena into the block's own buffers
// (NDJSON rows, compact samples). The handler goroutine keeps at most
// width blocks queued or running — a request never occupies more workers
// than its width, and no job holds a worker for more than one block — and
// at most 2·width blocks undrained, and drains them in sequence order
// through the endpoint's drain function, handing each slot to the next
// block. Workers never touch the client socket, and memory per request is
// O(width·k) units whatever its length.
//
// Two invariants keep the bytes identical for every width:
//
//  1. Block-independent seeding. Unit i's seed is the i-th draw of a
//     SplitMix64 master stream; a block covering units [lo, hi)
//     reproduces that subsequence with Reseed(seed) + Skip(lo), an O(1)
//     jump.
//  2. Sequence-order reduction. Drains feed their accumulators in unit
//     order, so every summary's floating-point operation sequence is the
//     serial one and the answer is bit-identical, not merely close.
//
// Admission: block 0's submission is the request's fail-fast admission
// decision (ErrQueueFull → 429); later blocks belong to an admitted
// request and wait for queue space. Failure is all-or-nothing: the first
// error — a rejected submission, the request's context ending, a failing
// block or drain — cancels the blocks still queued and is returned; a nil
// return means every block ran and was drained.

const (
	// blockRuns (K) caps the runs of one block job: large enough that a
	// block's pool round trip is noise next to its ~1 ms of simulation and
	// encoding, small enough that 2·width block buffers stay a few hundred
	// KiB.
	blockRuns = 256
	// maxRunChunks caps the explicit chunks field — a request's parallel
	// width. Each lane records one exec.mc span, so it also bounds the
	// trace spans a request can ask for (overflow beyond the span array is
	// counted, not lost silently — see obs.TraceRec).
	maxRunChunks = 64
	// minRunsPerChunk is the auto-width floor: below ~64 runs per lane a
	// block's pool round trip (~10µs) stops being negligible next to its
	// simulation time (~2.4µs/run), so requests under two floors' worth of
	// runs stay one lane wide.
	minRunsPerChunk = 64
)

// chunkCount decides a request's parallel width: how many of its blocks
// may be queued or running at once. requested > 0 is honored (capped at
// runs and maxRunChunks); 0 selects automatically: one lane per worker,
// but never lanes under minPerChunk units and never more lanes than
// workers.
func chunkCount(runs, workers, requested, minPerChunk int) int {
	if requested > 0 {
		return min(requested, runs, maxRunChunks)
	}
	if workers <= 1 || runs < 2*minPerChunk {
		return 1
	}
	return min(runs/minPerChunk, workers, maxRunChunks)
}

// mcSample is what a summary needs of one run beyond its NDJSON row; its
// class energies, if any, are class[off : off+2·nc] of its block.
type mcSample struct {
	finish, energy             float64
	speedChanges, lst, nc, off int
	met                        bool
}

// cmpSample is one scheme's outcome in one compare frame.
type cmpSample struct {
	norm   float64 // energy normalized to the frame's NPM baseline
	chg    int     // speed changes
	missed bool    // deadline miss
}

// runFail is a batch item's run that failed: the item's line becomes the
// error and its later runs in the block are skipped.
type runFail struct {
	at  int // sequence position of the failing run
	err error
}

// mcBlock is one block job's output for units [lo, lo+n). Each endpoint
// fills the buffers it drains. They are reused across blocks and
// requests; row is fillRow's scratch, so a warm block loop allocates
// nothing.
type mcBlock struct {
	lo, n   int
	rows    []byte      // /v1/run: NDJSON rows of the completed runs
	samples []mcSample  // /v1/run, /v1/batch: one per completed run
	class   []float64   // per sample with classes: nc gross then nc idle energies
	base    []float64   // /v1/compare: NPM baseline energy per frame
	cmp     []cmpSample // /v1/compare: frame-major, one per scheme
	fails   []runFail   // /v1/batch: failed item runs, in sequence order
	err     error       // request-level failure; the block's output is void
	t0, t1  time.Duration
	row     RunRow

	job      *job // handler-side: the block's pool job
	finished bool // handler-side: received from the request's fin channel
}

// mcBlockMaxRetained bounds the row buffer a block may take back into the
// pool (long OR paths make long rows; a one-off giant should not stay).
const mcBlockMaxRetained = 512 << 10

var mcBlockPool = sync.Pool{New: func() any { return new(mcBlock) }}

func (b *mcBlock) reset(lo, n int) {
	b.lo, b.n = lo, n
	b.rows = b.rows[:0]
	b.samples = b.samples[:0]
	b.class = b.class[:0]
	b.base = b.base[:0]
	b.cmp = b.cmp[:0]
	b.fails = b.fails[:0]
	b.err = nil
	b.t0, b.t1 = 0, 0
	b.job = nil
	b.finished = false
}

// addSample records res as the block's next sample.
func (b *mcBlock) addSample(res *core.RunResult) {
	b.samples = append(b.samples, mcSample{finish: res.Finish, energy: res.Energy(),
		speedChanges: res.SpeedChanges, lst: res.LSTViolations, met: res.MetDeadline,
		nc: len(res.ClassGrossEnergy), off: len(b.class)})
	b.class = append(b.class, res.ClassGrossEnergy...)
	b.class = append(b.class, res.ClassIdleEnergy...)
}

// reduce feeds samples [from, to) to mc in order — the same Add sequence
// a serial loop's Observe calls make.
func (b *mcBlock) reduce(mc *core.MCStats, from, to int) {
	for i := from; i < to; i++ {
		sm := &b.samples[i]
		var gross, idle []float64
		if sm.nc > 0 {
			gross = b.class[sm.off : sm.off+sm.nc]
			idle = b.class[sm.off+sm.nc : sm.off+2*sm.nc]
		}
		mc.Add(sm.finish, sm.energy, gross, idle, sm.speedChanges, sm.lst, sm.met)
	}
}

// blockSeq is one request's work for execBlocks.
type blockSeq struct {
	n     int   // units in the sequence
	width int   // blocks queued or running at once (chunkCount)
	maxK  int   // cap on the units of one block
	cost  int64 // runs per unit, for the pool's work accounting and the trace
	// run executes block b's units on a worker, recording a request-level
	// failure in b.err. It must check ctx between units.
	run func(ctx context.Context, wk *Worker, b *mcBlock)
	// drain consumes a finished block on the caller's goroutine, in
	// sequence order; an error ends the request.
	drain func(b *mcBlock) error
}

// mcLane aggregates the blocks of one trace lane into one exec.mc span.
type mcLane struct {
	t0, t1 time.Duration
	n      int64
}

// execBlocks runs seq through the pool and drains it in order; see the
// executor comment above for admission and failure semantics. The trace
// gets one exec span (detail "blocks") and one exec.mc span per lane:
// block i folds into lane i%width, so a request records at most width
// exec.mc spans however many blocks it runs, and their n values sum to
// the runs it executed.
func (p *Pool) execBlocks(ctx context.Context, seq blockSeq) error {
	if seq.n == 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rec := obs.TraceFromContext(ctx)
	tExec := rec.Now()

	width := seq.width
	k := min((seq.n+width-1)/width, seq.maxK)
	nblocks := (seq.n + k - 1) / k
	slots := min(2*width, nblocks)
	// fin's capacity covers every undrained block, so a finishing block
	// job never waits for the handler.
	fin := make(chan *mcBlock, slots)
	// Block i lives in window[i%slots] from submission until it is drained.
	window := make([]*mcBlock, slots)
	var lanes []mcLane
	if rec != nil {
		lanes = make([]mcLane, width)
	}
	defer func() {
		// Release the window: cancel what is still queued (the workers skip
		// it), wait out what is running, then recycle the buffers.
		cancel()
		for _, b := range window {
			if b == nil {
				continue
			}
			if b.job != nil && !b.finished {
				_ = p.await(ctx, b.job)
			}
			if cap(b.rows) <= mcBlockMaxRetained {
				mcBlockPool.Put(b)
			}
		}
		rec.RecordDetail(PhaseExec, tExec, "blocks")
		for _, l := range lanes {
			if l.n > 0 {
				rec.RecordOffsetsN(PhaseExecMC, l.t0, l.t1, l.n)
			}
		}
	}()

	running, next := 0, 0
	for drained := 0; drained < nblocks; {
		for running < width && next < nblocks && next-drained < slots {
			b := window[next%slots]
			if b == nil {
				b = mcBlockPool.Get().(*mcBlock)
				window[next%slots] = b
			}
			lo := next * k
			b.reset(lo, min(k, seq.n-lo))
			// Block 0 is the request's fail-fast admission, and its queue
			// wait is the one the trace records; later blocks wait for
			// queue space and stay out of the trace's span array.
			first := next == 0
			var jrec *obs.TraceRec
			if first {
				jrec = rec
			}
			j, err := p.enqueue(ctx, &p.shared, func(ctx context.Context, wk *Worker) {
				b.t0 = rec.SinceStart()
				defer func() {
					b.t1 = rec.SinceStart()
					fin <- b
				}()
				seq.run(ctx, wk, b)
			}, !first, int64(b.n)*seq.cost, jrec)
			if err != nil {
				return err
			}
			b.job = j
			running++
			next++
		}
		b := window[drained%slots]
		if !b.finished {
			select {
			case d := <-fin:
				d.finished = true
				running--
			case <-ctx.Done():
				return ctx.Err()
			}
			continue
		}
		if b.err != nil {
			return b.err
		}
		if err := seq.drain(b); err != nil {
			return err
		}
		if lanes != nil {
			l := &lanes[(b.lo/k)%width]
			if l.n == 0 { // a lane's blocks are picked up in order
				l.t0 = b.t0
			}
			l.t1 = max(l.t1, b.t1)
			l.n += int64(b.n) * seq.cost
		}
		drained++
	}
	return nil
}

// writeExecErr answers a request whose executor failed before its status
// line: pool rejections keep their statuses (429 with Retry-After, 503),
// a request that timed out or was cancelled is a 503, and a failing block
// a 500.
func (s *Server) writeExecErr(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrPoolClosed):
		s.checkPoolErr(w, err)
	case r.Context().Err() != nil:
		s.writeError(w, http.StatusServiceUnavailable, "request timed out mid-run")
	default:
		s.writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// runBlock is /v1/run's block job: the serial loop over runs [b.lo,
// b.lo+b.n) of the skipped master stream, encoding each row as it goes.
func runBlock(ctx context.Context, wk *Worker, b *mcBlock, plan *core.Plan, cfg core.RunConfig, seed uint64) {
	var master exectime.Source
	master.Reseed(seed)
	master.Skip(uint64(b.lo)) // run lo's seed is the lo-th master draw
	if !cfg.WorstCase {
		cfg.Sampler = wk.Sampler
	}
	res := &wk.Res
	for i := b.lo; i < b.lo+b.n; i++ {
		if b.err = ctx.Err(); b.err != nil {
			return
		}
		wk.Src.Reseed(master.Uint64())
		if b.err = plan.RunInto(cfg, wk.Arena, res); b.err != nil {
			return
		}
		fillRow(&b.row, i, res)
		if b.rows, b.err = appendRunRow(b.rows, &b.row); b.err != nil {
			return
		}
		b.addSample(res)
	}
}

// streamRuns executes a resolved runs > 1 request through the block
// executor and streams it as NDJSON: rows in run order, then the summary.
// The 200 is committed only once block 0 has finished, so a full queue, a
// timeout while queued and a failing first block still answer clean
// status codes; a failure after the 200 ends the stream with an
// {"error": ...} line and no summary.
func (s *Server) streamRuns(w http.ResponseWriter, r *http.Request, plan *core.Plan, cfg core.RunConfig,
	seed uint64, runs, width int) {
	var mc core.MCStats
	committed, gone := false, false
	rc := http.NewResponseController(w)
	err := s.pool.execBlocks(r.Context(), blockSeq{
		n: runs, width: width, maxK: blockRuns, cost: 1,
		run: func(ctx context.Context, wk *Worker, b *mcBlock) {
			runBlock(ctx, wk, b, plan, cfg, seed)
		},
		drain: func(b *mcBlock) error {
			b.reduce(&mc, 0, len(b.samples))
			if !committed {
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				committed = true
				// Every write of the stream is bounded by the request
				// deadline, so a client that stops reading releases this
				// goroutine too.
				if dl, ok := r.Context().Deadline(); ok {
					_ = rc.SetWriteDeadline(dl)
				}
			}
			_, err := w.Write(b.rows)
			if err == nil {
				if err = rc.Flush(); errors.Is(err, http.ErrNotSupported) {
					err = nil
				}
			}
			gone = err != nil
			return err
		},
	})
	s.runs.Add(int64(mc.Done))
	switch {
	case gone:
		return // client went away; a stream without a summary is incomplete
	case err != nil && committed:
		// Best effort: the client may be the failure.
		line := appendJSONString([]byte(`{"error":`), err.Error())
		_, _ = w.Write(append(line, "}\n"...))
		_ = rc.Flush()
		return
	case err != nil:
		s.writeExecErr(w, r, err)
		return
	}

	rec := obs.TraceFromContext(r.Context())
	t0 := rec.SinceStart()
	jb := jsonBufPool.Get().(*jsonBuf)
	jb.buf.Reset()
	sum := mcSummary(&mc, cfg)
	_ = jb.enc.Encode(&sum)
	_, _ = w.Write(jb.buf.Bytes())
	jsonBufPool.Put(jb)
	_ = rc.Flush()
	rec.RecordOffset(PhaseEncode, t0)
}
