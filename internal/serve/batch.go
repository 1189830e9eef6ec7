package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"andorsched/internal/core"
	"andorsched/internal/exectime"
	"andorsched/internal/obs"
)

// BatchRequest carries many small run requests in one HTTP round trip, so
// N Monte-Carlo experiments cost one connection, one admission decision
// and one response instead of N of each.
type BatchRequest struct {
	// Items are independent run requests (same shape as /v1/run bodies);
	// each item's runs (default 1) aggregate into its summary line rather
	// than streaming rows.
	Items []RunRequest `json:"items"`
}

// BatchItemResult is one item's line in the NDJSON response: either an
// execution summary (Error empty) or a per-item failure. Item indexes
// refer to the request's items array; lines are emitted in item order.
type BatchItemResult struct {
	Item  int    `json:"item"`
	Error string `json:"error,omitempty"`
	// The remaining fields mirror RunSummary for a successful item.
	Runs           int     `json:"runs,omitempty"`
	Scheme         string  `json:"scheme,omitempty"`
	DeadlineS      float64 `json:"deadline_s,omitempty"`
	MeanEnergyJ    float64 `json:"mean_energy_j,omitempty"`
	MeanFinishS    float64 `json:"mean_finish_s,omitempty"`
	MaxFinishS     float64 `json:"max_finish_s,omitempty"`
	DeadlineMisses int     `json:"deadline_misses,omitempty"`
	LSTViolations  int     `json:"lst_violations,omitempty"`
	SpeedChanges   int     `json:"speed_changes,omitempty"`
	// Per-class energy means, heterogeneous items only (see RunSummary).
	MeanClassGrossJ []float64 `json:"mean_class_gross_j,omitempty"`
	MeanClassIdleJ  []float64 `json:"mean_class_idle_j,omitempty"`
}

// BatchSummary is the trailing line of a batch response; its presence is
// the completeness marker clients (and loadgen) already rely on for
// /v1/run streams.
type BatchSummary struct {
	Summary bool `json:"summary"`
	Items   int  `json:"items"`
	OK      int  `json:"ok"`
	Errors  int  `json:"errors"`
	Runs    int  `json:"runs"`
}

// batchSeedBase seeds the derivation of per-item default seeds: item i of
// a batch whose items omit their seed runs with exectime.SeedAt(
// batchSeedBase, i). Fixed so seedless batches are reproducible across
// processes; arbitrary otherwise.
const batchSeedBase = 0x8f1c_33d9_5b24_a6e7

// batchItem is one item after validation: ready to execute, or already
// failed with its error line.
type batchItem struct {
	plan *core.Plan
	cfg  core.RunConfig
	runs int
	seed uint64
	res  BatchItemResult
}

// handleBatch executes every item of the request through the block
// executor and answers one NDJSON stream of per-item summaries plus a
// trailing batch summary. The whole batch passes tenant admission once
// (charging the sum of its items' runs) and the pool's once (its first
// block: a full queue is a 429). Item-level application errors (bad
// scheme, infeasible deadline, unknown workload, a failing run) become
// per-item error lines, not request failures; request-level errors
// (malformed JSON, size/count/run caps, admission, timeout) keep their
// usual statuses — no line is written until every item has settled.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	var req BatchRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		s.writeError(w, apiErr.status, apiErr.msg)
		return
	}
	if len(req.Items) == 0 {
		s.writeError(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d items, limit %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}
	s.batchItems.Add(int64(len(req.Items)))
	totalRuns := 0
	for i := range req.Items {
		runs := req.Items[i].Runs
		if runs == 0 {
			runs = 1
		}
		if runs < 1 || runs > s.cfg.MaxRuns {
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("item %d: runs %d outside [1, %d]", i, runs, s.cfg.MaxRuns))
			return
		}
		totalRuns += runs
		if totalRuns > s.cfg.MaxRuns {
			s.writeError(w, http.StatusBadRequest,
				fmt.Sprintf("batch totals more than %d runs", s.cfg.MaxRuns))
			return
		}
	}
	release, ok := s.admit(w, r, totalRuns)
	if !ok {
		return
	}
	defer release()

	// Resolve every item up front: scheme, plan (through the cache, so a
	// batch of one workload compiles once) and deadline. Failures become
	// the item's line; the rest of the batch proceeds.
	items := make([]batchItem, len(req.Items))
	for i := range req.Items {
		it := &items[i]
		it.res.Item = i
		spec := &req.Items[i]
		schemeName := spec.Scheme
		if schemeName == "" {
			schemeName = "GSS"
		}
		scheme, err := core.ParseScheme(schemeName)
		if err != nil {
			it.res.Error = err.Error()
			continue
		}
		plan, _, apiErr := s.planFor(r.Context(), &spec.AppSpec)
		if apiErr != nil {
			if apiErr.status == http.StatusServiceUnavailable {
				// A compile timeout is a request-level condition (the batch's
				// context is gone), not an item defect.
				s.writeError(w, apiErr.status, apiErr.msg)
				return
			}
			it.res.Error = apiErr.msg
			continue
		}
		deadline, apiErr := resolveDeadline(plan.CTWorst, spec.Deadline, spec.Load)
		if apiErr != nil {
			it.res.Error = apiErr.msg
			continue
		}
		it.plan = plan
		// The sampler is bound per worker at execution time; here only the
		// scheme, deadline and worst-case mode are fixed.
		it.cfg = core.RunConfig{Scheme: scheme, Deadline: deadline, WorstCase: spec.Worst}
		it.runs = spec.Runs
		if it.runs == 0 {
			it.runs = 1
		}
		it.seed = spec.Seed
		if it.seed == 0 {
			// Items that do not pick a seed get distinct, deterministic
			// per-item defaults. Sharing /v1/run's literal default (0) across
			// the batch made every seedless item replay one random stream:
			// a batch of "independent" replications silently returned N
			// copies of the same experiment. (Seed 0 therefore cannot be
			// requested explicitly in a batch item; any other value is used
			// verbatim, and resubmitting the same batch reproduces the same
			// per-item streams.)
			it.seed = exectime.SeedAt(batchSeedBase, uint64(i))
		}
	}

	x := newBatchExec(items)
	err := s.pool.execBlocks(r.Context(), x.seq(s.pool.Workers()))
	for i := range x.mcs {
		s.runs.Add(int64(x.mcs[i].Done))
	}
	if err != nil {
		s.writeExecErr(w, r, err)
		return
	}

	// All items settled: commit the 200 and stream the lines in item
	// order, then the completeness marker.
	rec := obs.TraceFromContext(r.Context())
	t0 := rec.SinceStart()
	defer rec.RecordOffset(PhaseEncode, t0)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	sum := BatchSummary{Summary: true, Items: len(items)}
	for i := range items {
		if items[i].res.Error != "" {
			sum.Errors++
		} else {
			sum.OK++
			sum.Runs += items[i].res.Runs
		}
		if enc.Encode(&items[i].res) != nil {
			return // client went away; the missing summary marks it incomplete
		}
	}
	_ = enc.Encode(sum)
}

// batchExec is one batch's execution: the valid items' runs form one
// sequence in item order, run as blocks that may span items. Run j of an
// item is the j-th draw of the item's master stream wherever its block
// starts, so an item's summary is exactly its /v1/run summary.
type batchExec struct {
	items  []*batchItem   // the resolved items, in item order
	starts []int          // starts[v]: sequence position of items[v]'s run 0
	mcs    []core.MCStats // per item, fed in run order
	cur    int            // the item the next drained run belongs to
}

func newBatchExec(items []batchItem) *batchExec {
	x := &batchExec{starts: []int{0}}
	for i := range items {
		if items[i].plan != nil {
			x.items = append(x.items, &items[i])
			x.starts = append(x.starts, x.starts[len(x.starts)-1]+items[i].runs)
		}
	}
	x.mcs = make([]core.MCStats, len(x.items))
	return x
}

// seq is the batch's block sequence, its width chosen like an auto-width
// /v1/run's.
func (x *batchExec) seq(workers int) blockSeq {
	total := x.starts[len(x.items)]
	return blockSeq{n: total, width: chunkCount(total, workers, 0, minRunsPerChunk),
		maxK: blockRuns, cost: 1, run: x.block, drain: x.drain}
}

// block is the batch's block job: runs [b.lo, b.lo+b.n) of the sequence,
// item by item, each item's runs drawn from its master stream skipped to
// the block's first run of it. A failing run fails its item only: it is
// recorded in b.fails and the item's remaining runs in the block are
// skipped.
func (x *batchExec) block(ctx context.Context, wk *Worker, b *mcBlock) {
	end := b.lo + b.n
	// The item holding run b.lo: the last start at or before it.
	v := sort.SearchInts(x.starts, b.lo+1) - 1
	for g := b.lo; g < end; v++ {
		it := x.items[v]
		segEnd := min(end, x.starts[v+1])
		var master exectime.Source
		master.Reseed(it.seed)
		master.Skip(uint64(g - x.starts[v]))
		cfg := it.cfg
		if !cfg.WorstCase {
			cfg.Sampler = wk.Sampler
		}
		for ; g < segEnd; g++ {
			if b.err = ctx.Err(); b.err != nil {
				return
			}
			wk.Src.Reseed(master.Uint64())
			if err := it.plan.RunInto(cfg, wk.Arena, &wk.Res); err != nil {
				b.fails = append(b.fails, runFail{at: g, err: err})
				g = segEnd
				break
			}
			b.addSample(&wk.Res)
		}
	}
}

// drain folds block b into its items' statistics in run order and
// settles each item whose last run it holds: its line becomes the summary,
// or the error of its first failing run.
func (x *batchExec) drain(b *mcBlock) error {
	si, fi := 0, 0 // b's next sample and next failure
	for g, end := b.lo, b.lo+b.n; g < end; {
		it := x.items[x.cur]
		segEnd := min(end, x.starts[x.cur+1])
		n := segEnd - g // the item's samples in b, unless a run failed
		var failed error
		if fi < len(b.fails) && b.fails[fi].at < segEnd {
			n, failed = b.fails[fi].at-g, b.fails[fi].err
			fi++
		}
		if it.res.Error == "" {
			b.reduce(&x.mcs[x.cur], si, si+n)
			if failed != nil {
				it.res.Error = failed.Error()
			}
		}
		si += n
		if g = segEnd; g == x.starts[x.cur+1] {
			if it.res.Error == "" {
				it.res = itemResult(it.res.Item, mcSummary(&x.mcs[x.cur], it.cfg))
			}
			x.cur++
		}
	}
	return nil
}

// itemResult renders a settled item's summary as its batch line.
func itemResult(item int, sum RunSummary) BatchItemResult {
	return BatchItemResult{
		Item: item, Runs: sum.Runs, Scheme: sum.Scheme,
		DeadlineS: sum.DeadlineS, MeanEnergyJ: sum.MeanEnergyJ,
		MeanFinishS: sum.MeanFinishS, MaxFinishS: sum.MaxFinishS,
		DeadlineMisses: sum.DeadlineMisses, LSTViolations: sum.LSTViolations,
		SpeedChanges:    sum.SpeedChanges,
		MeanClassGrossJ: sum.MeanClassGrossJ, MeanClassIdleJ: sum.MeanClassIdleJ,
	}
}
