package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"andorsched/internal/andor"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/power"
	"andorsched/internal/sim"
)

// Plan is the result of the off-line phase for one application on one
// system configuration (processor count, platform, overheads). It is
// deadline-independent: the shifting step only moves schedules rigidly, so
// latest finish times are stored relative to the deadline and resolved when
// Run is called.
//
// A Plan is immutable once NewPlan returns: no method mutates it, its
// graph, its sections, their engine templates or its platform. It may
// therefore be shared freely — cached, handed to any number of goroutines,
// published through a service — and Run, RunInto, RunSchemesInto,
// RunStream and the read-only accessors may be called
// concurrently on the same Plan at any scale, provided each goroutine
// brings its own Arena and Sampler (both are single-owner scratch state).
// Callers must likewise not mutate the Graph they passed to NewPlan
// afterwards. TestPlanSharedAcrossGoroutines exercises this contract under
// the race detector.
type Plan struct {
	// Graph is the application.
	Graph *andor.Graph
	// Sections is its program-section decomposition.
	Sections *andor.Sections
	// Procs is the number of processors m.
	Procs int
	// Platform is the processors' DVS model on identical-processor systems;
	// nil when the plan was compiled for a heterogeneous platform.
	Platform *power.Platform
	// Hetero is the heterogeneous platform when the plan was compiled by
	// NewHeteroPlan; nil for identical-processor plans. Exactly one of
	// Platform and Hetero is non-nil. Both kinds of plan run on the same
	// machine model (see mach); Hetero additionally selects the per-class
	// energy breakdown of RunResult and honors `@class` tags.
	Hetero *power.Hetero
	// Placement is the placement policy the heterogeneous canonical
	// schedules were built with (nil on identical-processor plans, never nil
	// on heterogeneous ones). It is a plan parameter, not a run parameter:
	// the policy decides which class each task's canonical schedule runs it
	// on, and the online phase pins every task to that class — that pinning
	// is what carries Theorem 1's safety argument to unequal processors, so
	// two placements genuinely compare two plans (see NewHeteroPlan).
	Placement sim.PlacementPolicy
	// Overheads are the power-management costs assumed by the dynamic
	// schemes. The off-line phase pads every task's worst case by
	// Overheads.PadTime so run-time speed management can never cause a
	// deadline miss.
	Overheads power.Overheads

	// CTWorst is the canonical completion time of the longest execution
	// path (the paper's T_worst stored in the first PMP): the minimum
	// feasible deadline.
	CTWorst float64
	// CTAvg is the probability-weighted average-case completion time over
	// all execution paths (the paper's T_avg), used by the speculative
	// schemes.
	CTAvg float64

	// mach is the machine the plan compiles and runs on: Hetero, or the
	// one-class wrapping of Platform at Speed 1 (power.Homogeneous), whose
	// arithmetic is bit-identical to the identical-processor model.
	mach *power.Hetero
	// classes holds each processor class's plan-constant tables, and
	// procEff each processor's maximal effective rate Speed·f_max — the
	// rate its class-relative latest start times are measured at.
	classes []classPlan
	procEff []float64

	secs []*secPlan // indexed by section ID
	fmax float64
	// alphaTask is the work-weighted mean ACET/WCET ratio over all compute
	// tasks (Σ ACET / Σ WCET), each section counted once: the task-level
	// static workload assumption ORA's online estimator is seeded from and
	// judged against. Distinct from CTAvg/CTWorst, which is a
	// schedule-length ratio skewed by barriers and overhead padding.
	alphaTask float64
}

// classPlan is one processor class's plan-constant data, read by the
// scheme policies at every pickup.
type classPlan struct {
	plat *power.Platform
	// eff is each level's effective execution rate Speed·f; at Speed 1 it
	// is the level frequency itself.
	eff []float64
	// speed is the class's throughput multiplier.
	speed float64
	// maxChange is the worst-case cost of one voltage/speed change on the
	// class's table, budgeted before the target level (and thus the actual
	// voltage swing) is known.
	maxChange float64
}

// secPlan is the off-line data of one program section.
type secPlan struct {
	sec *andor.Section
	// lenW and lenA are the canonical schedule lengths using padded worst-
	// and average-case execution times.
	lenW, lenA float64
	// remWorst and remAvg are the completion times of the work remaining
	// after this section's exit barrier: the max (resp. probability-
	// weighted mean) over the exit Or node's branches of that branch's
	// length plus its own remainder. Zero for terminal sections. These are
	// the per-path PMP values of §2.2.
	remWorst, remAvg float64
	// tmpl is the section's sealed engine template, indexed like
	// sec.Nodes: every on-line run of the section replays it with the
	// run's actual work, so a run copies no task data.
	tmpl sim.Template
	// relLFT[i] is task i's latest finish time minus the deadline (always
	// ≤ 0): LFT = D + relLFT[i]. It equals the task's finish time in the
	// section's canonical schedule minus the worst-case time from the
	// section's start to the application's end.
	relLFT []float64
	// computeIdx indexes the Compute tasks, in task order, and wcets/acets
	// hold their execution-time parameters contiguously — the layout
	// batched sampling (exectime.BatchSampler) consumes when the on-line
	// phase draws a whole section's actual times in one call.
	computeIdx   []int
	wcets, acets []float64
}

// DefaultScheduleCacheCapacity bounds the process-wide section-schedule
// cache NewPlan consults by default. Entries are small (a few slices per
// section), so the default is generous enough that realistic workload mixes
// never evict.
const DefaultScheduleCacheCapacity = 4096

// scheduleCache is the process-wide section-schedule memoization used by
// NewPlan; see docs/COMPILE_CACHE.md. The pointer is swapped atomically so
// SetScheduleCacheCapacity is safe to call concurrently with compiles (a
// compile in flight keeps using the cache it loaded — results are identical
// either way, only amortization changes).
var scheduleCache atomic.Pointer[schedcache.Cache]

func init() {
	scheduleCache.Store(schedcache.New(DefaultScheduleCacheCapacity))
}

// SetScheduleCacheCapacity replaces the process-wide section-schedule cache
// with a fresh one bounded to n entries; n <= 0 disables caching entirely
// (every NewPlan recomputes every canonical schedule — the behavior before
// the cache existed, useful for A/B profiling). Plans are bit-identical
// with the cache on, off, or resized.
func SetScheduleCacheCapacity(n int) {
	if n <= 0 {
		scheduleCache.Store(nil)
		return
	}
	scheduleCache.Store(schedcache.New(n))
}

// ScheduleCacheStats snapshots the process-wide section-schedule cache
// counters. All-zero when the cache is disabled.
func ScheduleCacheStats() schedcache.Stats {
	c := scheduleCache.Load()
	if c == nil {
		return schedcache.Stats{}
	}
	return c.Stats()
}

// NewPlan runs the off-line phase: it validates the application, decomposes
// it into program sections, builds each section's canonical longest-task-
// first schedule on m processors at maximum speed, aggregates worst- and
// average-case completion times over the section graph, and derives each
// task's canonical dispatch order and relative latest finish time.
//
// Canonical section schedules are memoized in a process-wide cache keyed by
// the section's structural digest and the scheduling parameters, so
// recompiling the same (section, m, f_max, pad) problem skips the
// simulation runs; results are bit-identical to an uncached compile (see
// NewPlanWithCache and docs/COMPILE_CACHE.md).
//
// It returns an error if the graph is invalid or m is not positive.
// Deadline feasibility (CTWorst ≤ D) is checked by Run, which knows the
// deadline.
func NewPlan(g *andor.Graph, m int, platform *power.Platform, ov power.Overheads) (*Plan, error) {
	return NewPlanWithCache(g, m, platform, ov, scheduleCache.Load())
}

// NewHeteroPlan runs the off-line phase for a heterogeneous platform: the
// canonical longest-task-first schedules are built on the platform's actual
// processor mix (every class at its own maximum speed, processors chosen by
// the given placement policy; nil defaults to sim.FastestFirst), work is
// measured in cycles at the reference rate Hetero.RefFmax, and every task
// additionally records the class its canonical schedule ran it on. The
// online phase pins each task to that class: within a class the processors
// are identical, so the paper's Theorem-1 argument applies class by class
// and deadline safety survives unequal processors — whereas letting the
// online run migrate a task to any other class, even a faster one, admits
// Graham-style timing anomalies (docs/MODEL.md). Placement is therefore a
// plan parameter: sim.EnergyGreedy steers canonical work onto cheaper
// classes (usually lengthening CTWorst, the minimum feasible deadline, in
// exchange for energy), and sim.ClassAffinity honors `@class` tags.
//
// Task nodes tagged with a class name (andor's `@class`) must name one of
// the platform's classes; the tag becomes the task's placement affinity.
// On a 1-class platform with Speed 1 the compiled plan's runs are
// bit-identical to NewPlan on the class's platform under every placement
// policy (differential-tested).
//
// Heterogeneous canonical schedules are memoized in the same process-wide
// section cache as identical-processor ones, under a key that additionally
// carries the platform's content hash (power.Hetero.Key), the placement
// policy name and the section's class-affinity tags — the parts a
// heterogeneous schedule depends on that the structural digest omits — so
// placement-sensitive entries can never poison identical-platform ones.
// Cached compiles are bit-identical to uncached ones (differential-tested).
func NewHeteroPlan(g *andor.Graph, hp *power.Hetero, ov power.Overheads, place sim.PlacementPolicy) (*Plan, error) {
	return NewHeteroPlanWithCache(g, hp, ov, place, scheduleCache.Load())
}

// NewHeteroPlanWithCache is NewHeteroPlan against an explicit
// section-schedule cache instead of the process-wide one (the serve layer's
// shared-nothing workers each bring their own). A nil cache disables
// memoization. The compiled Plan does not retain the cache.
func NewHeteroPlanWithCache(g *andor.Graph, hp *power.Hetero, ov power.Overheads,
	place sim.PlacementPolicy, cache *schedcache.Cache) (*Plan, error) {
	if hp == nil {
		return nil, fmt.Errorf("core: nil heterogeneous platform")
	}
	if place == nil {
		place = sim.FastestFirst
	}
	p := &Plan{Graph: g, Procs: hp.NumProcs(), Hetero: hp, Placement: place, Overheads: ov, mach: hp}
	return p.compile(cache)
}

// NewPlanWithCache is NewPlan against an explicit section-schedule cache
// instead of the process-wide one. A nil cache disables memoization. The
// compiled Plan does not retain the cache; it only reads (and populates)
// it during compilation.
func NewPlanWithCache(g *andor.Graph, m int, platform *power.Platform, ov power.Overheads,
	cache *schedcache.Cache) (*Plan, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: processor count %d must be positive", m)
	}
	if platform == nil {
		return nil, fmt.Errorf("core: nil platform")
	}
	mach, err := power.Homogeneous(platform, m)
	if err != nil {
		return nil, err
	}
	p := &Plan{Graph: g, Procs: m, Platform: platform, Overheads: ov, mach: mach}
	return p.compile(cache)
}

// compile runs the off-line phase on the plan's machine, filling in
// everything but the configuration fields the constructors set.
func (p *Plan) compile(cache *schedcache.Cache) (*Plan, error) {
	if err := p.Graph.Validate(); err != nil {
		return nil, err
	}
	secs, err := andor.Decompose(p.Graph)
	if err != nil {
		return nil, err
	}
	p.Sections = secs
	p.fmax = p.mach.RefFmax()
	p.classes = make([]classPlan, p.mach.NumClasses())
	for c := range p.classes {
		cl := p.mach.Class(c)
		lv := cl.Plat.Levels()
		cp := classPlan{plat: cl.Plat, eff: make([]float64, len(lv)), speed: cl.Speed,
			maxChange: p.Overheads.MaxChangeTime(cl.Plat)}
		for i := range lv {
			cp.eff[i] = lv[i].Freq * cl.Speed
		}
		p.classes[c] = cp
	}
	p.procEff = make([]float64, p.Procs)
	for i := range p.procEff {
		p.procEff[i] = p.mach.Class(p.mach.ClassOf(i)).EffFmax()
	}
	p.secs = make([]*secPlan, len(secs.All))
	pad := p.Overheads.PadTimeHetero(p.mach)
	// One engine arena serves every canonical run of the compile.
	arena := sim.NewArena()
	for _, sec := range secs.All {
		sp, err := p.planSection(sec, pad, cache, arena)
		if err != nil {
			return nil, err
		}
		p.secs[sec.ID] = sp
	}
	p.aggregate()
	for _, sp := range p.secs {
		base := sp.remWorst + sp.lenW // worst time from section start to app end
		for i := range sp.relLFT {
			sp.relLFT[i] -= base
		}
	}
	p.CTWorst = p.secs[secs.First.ID].lenW + p.secs[secs.First.ID].remWorst
	p.CTAvg = p.secs[secs.First.ID].lenA + p.secs[secs.First.ID].remAvg
	var sumW, sumA float64
	for _, sp := range p.secs {
		for j := range sp.wcets {
			sumW += sp.wcets[j]
			sumA += sp.acets[j]
		}
	}
	if sumW > 0 {
		p.alphaTask = sumA / sumW
	}
	return p, nil
}

// planSection builds one section's canonical schedules and its template.
// pad is the per-task worst-case allowance for power-management overheads.
// When cache is non-nil the canonical engine runs are memoized under the
// section's structural digest: a hit reuses the cached dispatch orders,
// finish times and lengths (bit-identical to recomputing them) and skips
// both simulations.
func (p *Plan) planSection(sec *andor.Section, pad float64, cache *schedcache.Cache, arena *sim.Arena) (*secPlan, error) {
	sp := &secPlan{sec: sec}
	if err := p.buildTemplate(sp, pad); err != nil {
		return nil, err
	}
	t := &sp.tmpl
	n := t.Len()
	if n == 0 {
		return sp, t.Seal() // zero-length section (Or chained to Or)
	}

	var key schedcache.Key
	if cache != nil {
		key = schedcache.Key{
			Section:  sec.Digest(),
			Procs:    p.Procs,
			FMaxBits: math.Float64bits(p.fmax),
			PadBits:  math.Float64bits(pad),
		}
		if p.Hetero != nil {
			// The structural digest covers neither the processor mix, the
			// placement, nor the `@class` tags (homogeneous schedules ignore
			// all three); fold them in so heterogeneous entries only ever
			// match the exact same scheduling problem.
			key.Hetero = p.Hetero.Key() + "/" + p.Placement.Name()
			key.ClassBits = classAffinityBits(t.Affinity)
		}
		// The length and class-shape guards downgrade a (cryptographically
		// improbable) digest collision to a recompute rather than a corrupt
		// plan.
		if cs, ok := cache.Get(key); ok && len(cs.Order) == n &&
			(cs.Classes != nil) == (p.Hetero != nil) {
			sp.lenW, sp.lenA = cs.LenW, cs.LenA
			copy(t.Order, cs.Order)
			copy(sp.relLFT, cs.FinishW) // made deadline-relative by compile
			copy(t.SpecRemain, cs.SpecRemain)
			copy(t.CanonClass, cs.Classes)
			return sp, t.Seal()
		}
	}

	// The canonical runs are ByPriority, which needs no dispatch order:
	// seal the template before its order is known.
	if err := t.Seal(); err != nil {
		return nil, err
	}
	// Worst-case canonical schedule: padded WCETs at f_max, longest task
	// first. It defines the section length, the dispatch orders and the
	// per-task canonical finish times used for shifting. Every class runs
	// at its own maximum speed with processors chosen by the plan's
	// placement policy, and each task's canonical class is recorded — on a
	// multi-class machine the online feasibility guard pins the task there.
	canonCfg := sim.Config{Mode: sim.ByPriority, Hetero: p.mach, Placement: p.Placement}
	resW, err := arena.RunTemplate(canonCfg, t, t.WorkW)
	if err != nil {
		return nil, fmt.Errorf("core: canonical schedule of section %d: %w", sec.ID, err)
	}
	sp.lenW = resW.Finish
	for k, rec := range resW.Records {
		t.Order[rec.Task] = k
		sp.relLFT[rec.Task] = rec.Finish // made deadline-relative by compile
		t.CanonClass[rec.Task] = p.mach.ClassOf(rec.Proc)
	}

	// Average-case canonical schedule: same heuristic (still ranked by the
	// worst case) with padded ACETs. Only its length is kept (the paper's
	// T*_k PMP values for speculation).
	avg := make([]float64, n)
	for j, ti := range sp.computeIdx {
		avg[ti] = (sp.acets[j] + pad) * p.fmax
	}
	resA, err := arena.RunTemplate(canonCfg, t, avg)
	if err != nil {
		return nil, fmt.Errorf("core: average canonical schedule of section %d: %w", sec.ID, err)
	}
	sp.lenA = resA.Finish
	// Per-task remaining average-case time within the section (the PMP
	// statistic the per-PMP speculation scheme reads): the average
	// canonical length minus the task's average canonical dispatch time.
	for _, rec := range resA.Records {
		t.SpecRemain[rec.Task] = sp.lenA - rec.Dispatch
	}
	// Seal again, now that the dispatch order is known.
	if err := t.Seal(); err != nil {
		return nil, err
	}

	if cache != nil {
		cs := &schedcache.Schedule{
			LenW:       sp.lenW,
			LenA:       sp.lenA,
			Order:      append([]int(nil), t.Order...),
			FinishW:    append([]float64(nil), sp.relLFT...),
			SpecRemain: append([]float64(nil), t.SpecRemain...),
		}
		if p.Hetero != nil {
			cs.Classes = append([]int(nil), t.CanonClass...)
		}
		cache.Put(key, cs)
	}
	return sp, nil
}

// buildTemplate fills the plan-constant part of sp's template — node
// identity, padded worst-case work, class affinity and the in-section
// dependence edges — and its compute-task index. The order, canonical
// class and speculation statistic come from the canonical schedules.
func (p *Plan) buildTemplate(sp *secPlan, pad float64) error {
	nodes := sp.sec.Nodes
	n := len(nodes)
	local := make(map[*andor.Node]int, n)
	preds, succs, compute := 0, 0, 0 // bounds: edges may leave the section
	for i, nd := range nodes {
		local[nd] = i
		preds += len(nd.Preds())
		succs += len(nd.Succs())
		if nd.Kind == andor.Compute {
			compute++
		}
	}
	// One backing array per element type, carved into per-field windows:
	// a section costs a fixed handful of allocations however many tasks
	// and edges it has.
	ints := make([]int, 6*n+2+preds+succs+compute)
	floats := make([]float64, 3*n+2*compute)
	t := &sp.tmpl
	t.Node, t.Order, t.Affinity, t.CanonClass = carve(&ints, n), carve(&ints, n), carve(&ints, n), carve(&ints, n)
	t.PredStart, t.SuccStart = carve(&ints, n+1), carve(&ints, n+1)
	t.Preds, t.Succs, sp.computeIdx = carve(&ints, preds)[:0], carve(&ints, succs)[:0], carve(&ints, compute)[:0]
	t.WorkW, t.SpecRemain, sp.relLFT = carve(&floats, n), carve(&floats, n), carve(&floats, n)
	sp.wcets, sp.acets = carve(&floats, compute)[:0], carve(&floats, compute)[:0]
	t.Name = make([]string, n)
	t.Dummy = make([]bool, n)
	for i, nd := range nodes {
		t.Node[i], t.Name[i], t.Dummy[i] = nd.ID, nd.Name, nd.Kind == andor.And
		if nd.Kind == andor.Compute {
			t.WorkW[i] = (nd.WCET + pad) * p.fmax
			if p.Hetero != nil && nd.Class != "" {
				ci := p.Hetero.ClassIndex(nd.Class)
				if ci < 0 {
					return fmt.Errorf("core: task %q: platform %q has no processor class %q",
						nd.Name, p.Hetero.Name, nd.Class)
				}
				t.Affinity[i] = ci + 1
			}
			sp.computeIdx = append(sp.computeIdx, i)
			sp.wcets = append(sp.wcets, nd.WCET)
			sp.acets = append(sp.acets, nd.ACET)
		}
		// Predecessors outside the section are Or nodes (entries); the
		// barrier discipline satisfies them implicitly.
		t.PredStart[i] = len(t.Preds)
		for _, pr := range nd.Preds() {
			if j, ok := local[pr]; ok {
				t.Preds = append(t.Preds, j)
			}
		}
		t.SuccStart[i] = len(t.Succs)
		for _, su := range nd.Succs() {
			if j, ok := local[su]; ok {
				t.Succs = append(t.Succs, j)
			}
		}
	}
	t.PredStart[n], t.SuccStart[n] = len(t.Preds), len(t.Succs)
	return nil
}

// carve cuts the next n elements off *buf, capped so appends to the
// returned slice cannot run into the next window.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// classAffinityBits hashes a section's per-task class affinities (local
// index, resolved class index) into the schedule-cache key. FNV-1a over the
// tagged tasks only: untagged sections of equal shape still share entries.
func classAffinityBits(affinity []int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i, a := range affinity {
		if a != 0 {
			h = (h ^ uint64(i)) * 0x100000001b3
			h = (h ^ uint64(a)) * 0x100000001b3
		}
	}
	return h
}

// aggregate fills remWorst/remAvg by memoized recursion over the section
// DAG (the paper's per-PMP worst/average remaining times).
func (p *Plan) aggregate() {
	done := make([]bool, len(p.secs))
	var visit func(sp *secPlan)
	visit = func(sp *secPlan) {
		if done[sp.sec.ID] {
			return
		}
		done[sp.sec.ID] = true
		exit := sp.sec.Exit
		if exit == nil || len(exit.Succs()) == 0 {
			return // terminal section: nothing remains
		}
		branches := p.Sections.Branch[exit.ID]
		var worst, avg float64
		for i, next := range branches {
			nsp := p.secs[next.ID]
			visit(nsp)
			w := nsp.lenW + nsp.remWorst
			if w > worst {
				worst = w
			}
			avg += exit.BranchProb(i) * (nsp.lenA + nsp.remAvg)
		}
		sp.remWorst, sp.remAvg = worst, avg
	}
	for _, sp := range p.secs {
		visit(sp)
	}
}

// Feasible reports whether the application is guaranteed to meet the given
// deadline: the canonical schedule of the longest path finishes by D
// (Theorem 1's precondition).
func (p *Plan) Feasible(deadline float64) bool {
	return p.CTWorst <= deadline*(1+1e-12)
}

// MinDeadline returns the smallest feasible deadline, CTWorst.
func (p *Plan) MinDeadline() float64 { return p.CTWorst }

// SectionAvgRemaining returns, for the section with the given ID, the
// average-case time to complete the application from that section's start:
// its own average canonical length plus the probability-weighted remainder
// after its exit barrier. The adaptive speculation scheme divides this by
// the time to the deadline.
func (p *Plan) SectionAvgRemaining(sectionID int) float64 {
	sp := p.secs[sectionID]
	return sp.lenA + sp.remAvg
}

// SectionWorstRemaining returns the worst-case analogue of
// SectionAvgRemaining.
func (p *Plan) SectionWorstRemaining(sectionID int) float64 {
	sp := p.secs[sectionID]
	return sp.lenW + sp.remWorst
}

// NumSections returns the number of program sections.
func (p *Plan) NumSections() int { return len(p.secs) }

// SpeculativeSpeed returns the paper's static speculative speed
// f_max·CT_avg/D for the given deadline (before level quantization).
func (p *Plan) SpeculativeSpeed(deadline float64) float64 {
	if deadline <= 0 {
		return math.Inf(1)
	}
	return p.fmax * p.CTAvg / deadline
}
