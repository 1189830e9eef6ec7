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

// The Monte-Carlo executor behind /v1/run with runs > 1. A request's runs
// are cut into blocks of at most blockRuns consecutive runs; each block is
// an ordinary pool job that simulates its runs, encodes their NDJSON rows
// into the block's own buffer (appendRunRow) and keeps a compact sample
// of each run for the summary. The handler goroutine keeps at most width
// blocks queued or running — a request never occupies more workers than
// its width — and at most 2·width blocks unwritten, and drains them in
// run order: it feeds the samples to core.MCStats, writes
// the rows, flushes, and hands the slot to the next block. Workers never
// touch the client socket, and memory per request is O(width·blockRuns)
// rows whatever runs is.
//
// Two invariants keep the bytes identical for every width:
//
//  1. Block-independent seeding. Run i's seed is the i-th draw of the
//     request's master SplitMix64 stream; a block covering runs [lo, hi)
//     reproduces that subsequence with Reseed(seed) + Skip(lo), an O(1)
//     jump.
//  2. Run-order reduction. The handler feeds MCStats in global run order,
//     so the summary's floating-point operation sequence is the serial
//     one and the summary is bit-identical, not merely close.
//
// Status line: the first block's admission is the request's fail-fast
// admission decision, and the 200 is committed only once that block has
// finished, so a full queue, a timeout while queued and a failing first
// block still answer clean status codes. A failure after the 200 ends the
// stream with an {"error": ...} line and no summary.

// blockRuns (K) caps the runs of one block job: large enough that a
// block's pool round trip is noise next to its ~1 ms of simulation and
// encoding, small enough that 2·width block buffers stay a few hundred KiB.
const blockRuns = 256

// mcSample is what the summary needs of one run beyond its NDJSON row.
type mcSample struct {
	finish, energy    float64
	speedChanges, lst int
	met               bool
}

// mcBlock is one block job's output for runs [lo, lo+n). The buffers are
// reused across blocks and requests; row is fillRow's scratch, so the
// block loop allocates nothing once warm.
type mcBlock struct {
	lo, n   int
	rows    []byte     // NDJSON rows of the completed runs
	samples []mcSample // one per completed run
	class   []float64  // per completed run: nc gross then nc idle energies
	nc      int        // processor classes per run (0 on homogeneous platforms)
	err     error
	t0, t1  time.Duration // trace offsets of the block's execution
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
	b.nc = 0
	b.err = nil
	b.t0, b.t1 = 0, 0
	b.job = nil
	b.finished = false
}

// mcRun is one request's executor state shared with its block jobs.
type mcRun struct {
	plan *core.Plan
	cfg  core.RunConfig // Sampler is set per worker
	seed uint64
	rec  *obs.TraceRec
	fin  chan *mcBlock // completed blocks; capacity covers every unwritten block
}

// block builds the pool job for b: the serial loop over runs [b.lo,
// b.lo+b.n) of the skipped master stream, encoding each row as it goes.
func (x *mcRun) block(b *mcBlock) func(context.Context, *Worker) {
	return func(ctx context.Context, wk *Worker) {
		b.t0 = x.rec.SinceStart()
		defer func() {
			b.t1 = x.rec.SinceStart()
			x.fin <- b
		}()
		var master exectime.Source
		master.Reseed(x.seed)
		master.Skip(uint64(b.lo)) // run lo's seed is the lo-th master draw
		cfg := x.cfg
		if !cfg.WorstCase {
			cfg.Sampler = wk.Sampler
		}
		res := &wk.Res
		for i := b.lo; i < b.lo+b.n; i++ {
			if b.err = ctx.Err(); b.err != nil {
				return
			}
			wk.Src.Reseed(master.Uint64())
			if b.err = x.plan.RunInto(cfg, wk.Arena, res); b.err != nil {
				return
			}
			fillRow(&b.row, i, res)
			if b.rows, b.err = appendRunRow(b.rows, &b.row); b.err != nil {
				return
			}
			b.samples = append(b.samples, mcSample{finish: res.Finish, energy: res.Energy(),
				speedChanges: res.SpeedChanges, lst: res.LSTViolations, met: res.MetDeadline})
			b.nc = len(res.ClassGrossEnergy)
			b.class = append(b.class, res.ClassGrossEnergy...)
			b.class = append(b.class, res.ClassIdleEnergy...)
		}
	}
}

// reduce feeds b's samples to mc in run order — the same Add sequence the
// serial loop's Observe calls made.
func (b *mcBlock) reduce(mc *core.MCStats) {
	var gross, idle []float64
	for i := range b.samples {
		sm := &b.samples[i]
		if b.nc > 0 {
			off := 2 * b.nc * i
			gross, idle = b.class[off:off+b.nc], b.class[off+b.nc:off+2*b.nc]
		}
		mc.Add(sm.finish, sm.energy, gross, idle, sm.speedChanges, sm.lst, sm.met)
	}
}

// mcLane aggregates the blocks of one trace lane into one exec.mc span.
type mcLane struct {
	t0, t1 time.Duration
	n      int64
}

// streamRuns executes a resolved runs > 1 request through the block
// executor and streams it as NDJSON. width is the request's parallel
// width (chunkCount): at most width blocks are queued or running at once.
func (s *Server) streamRuns(w http.ResponseWriter, r *http.Request, plan *core.Plan, cfg core.RunConfig,
	seed uint64, runs, width int) {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	rec := obs.TraceFromContext(r.Context())
	tExec := rec.Now()

	k := (runs + width - 1) / width
	if k > blockRuns {
		k = blockRuns
	}
	nblocks := (runs + k - 1) / k
	slots := 2 * width
	if slots > nblocks {
		slots = nblocks
	}
	x := &mcRun{plan: plan, cfg: cfg, seed: seed, rec: rec, fin: make(chan *mcBlock, slots)}
	// Block i lives in window[i%slots] from submission until it is written.
	window := make([]*mcBlock, slots)
	// Trace lanes: block i's execution folds into lane i%width, so a
	// request records at most width exec.mc spans however many blocks it
	// runs, and their n values sum to the runs executed.
	var lanes []mcLane
	if rec != nil {
		lanes = make([]mcLane, width)
	}

	var mc core.MCStats
	committed := false
	rc := http.NewResponseController(w)
	defer func() {
		// Release the window: cancel what is still queued (the workers skip
		// it), wait out what is running, then recycle the buffers.
		cancel()
		for _, b := range window {
			if b == nil {
				continue
			}
			if b.job != nil && !b.finished {
				_ = s.pool.await(ctx, b.job)
			}
			if cap(b.rows) <= mcBlockMaxRetained {
				mcBlockPool.Put(b)
			}
		}
		s.runs.Add(int64(mc.Done))
		rec.RecordDetail(PhaseExec, tExec, "blocks")
		for _, l := range lanes {
			if l.n > 0 {
				rec.RecordOffsetsN(PhaseExecMC, l.t0, l.t1, l.n)
			}
		}
	}()
	fail := func(err error) {
		switch {
		case committed:
			// Best effort: the client may be the failure.
			line := appendJSONString([]byte(`{"error":`), err.Error())
			_, _ = w.Write(append(line, "}\n"...))
			_ = rc.Flush()
		case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrPoolClosed):
			s.checkPoolErr(w, err)
		case r.Context().Err() != nil:
			s.writeError(w, http.StatusServiceUnavailable, "request timed out mid-run")
		default:
			s.writeError(w, http.StatusInternalServerError, err.Error())
		}
	}

	running, next := 0, 0
	for written := 0; written < nblocks; {
		for running < width && next < nblocks && next-written < slots {
			b := window[next%slots]
			if b == nil {
				b = mcBlockPool.Get().(*mcBlock)
				window[next%slots] = b
			}
			lo := next * k
			b.reset(lo, min(k, runs-lo))
			// Block 0 is the request's fail-fast admission, and its queue
			// wait is the one the trace records; later blocks belong to an
			// admitted request, wait for queue space and stay out of the
			// trace's span array.
			first := next == 0
			var jrec *obs.TraceRec
			if first {
				jrec = rec
			}
			j, err := s.pool.enqueue(ctx, s.pool.shared, s.pool.sharedRing, x.block(b), !first, int64(b.n), jrec)
			if err != nil {
				fail(err)
				return
			}
			b.job = j
			running++
			next++
		}
		b := window[written%slots]
		if !b.finished {
			select {
			case d := <-x.fin:
				d.finished = true
				running--
			case <-ctx.Done():
				fail(ctx.Err())
				return
			}
			continue
		}
		if b.err != nil {
			fail(b.err)
			return
		}
		b.reduce(&mc)
		if lanes != nil {
			l := &lanes[(b.lo/k)%width]
			if l.n == 0 { // a lane's blocks are picked up in order
				l.t0 = b.t0
			}
			l.t1 = max(l.t1, b.t1)
			l.n += int64(b.n)
		}
		if !committed {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			committed = true
			// Every write of the stream is bounded by the request deadline,
			// so a client that stops reading releases this goroutine too.
			if dl, ok := r.Context().Deadline(); ok {
				_ = rc.SetWriteDeadline(dl)
			}
		}
		if _, err := w.Write(b.rows); err != nil {
			return // client went away; a stream without a summary is incomplete
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return
		}
		written++
	}

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
