package sim

import (
	"fmt"
	"math"
	"sort"

	"andorsched/internal/obs"
)

// engineMetrics holds the engine's pre-resolved instruments so the dispatch
// loop never takes the registry lock or formats metric names.
type engineMetrics struct {
	tasks, dummies, changes *obs.Counter
	exec, idle              *obs.Histogram
	procChanges             []*obs.Counter
}

func newEngineMetrics(m *obs.Metrics, procs int) *engineMetrics {
	em := &engineMetrics{
		tasks:       m.Counter(MetricTasks),
		dummies:     m.Counter(MetricDummies),
		changes:     m.Counter(MetricSpeedChanges),
		exec:        m.Histogram(MetricExecSeconds, obs.DefaultTimeBuckets),
		idle:        m.Histogram(MetricIdleSeconds, obs.DefaultTimeBuckets),
		procChanges: make([]*obs.Counter, procs),
	}
	for i := range em.procChanges {
		em.procChanges[i] = m.Counter(MetricProcSpeedChanges(i))
	}
	return em
}

// Run simulates the execution of one program section's tasks on the
// configured multiprocessor and returns the schedule and energy breakdown.
// It is deterministic: identical inputs produce identical results.
//
// It returns an error when the input cannot execute to completion —
// cyclic dependences, an Order field that is not a permutation of 0..n-1
// in ByOrder mode, or inconsistent Preds/Succs.
//
// Run converts tasks to a Template (NewTemplate) and runs it, allocating
// fresh state per call, so the Result is independent of later calls. Hot
// loops that run many simulations should build the template once and call
// (*Arena).RunTemplate, which reuses the scratch state and allocates
// nothing in the steady state.
func Run(cfg Config, tasks []*Task) (*Result, error) {
	rs := &runState{cfg: cfg}
	return rs.runTasks(tasks)
}

// runState is the engine's complete per-run scratch state. A fresh zero
// value is used by the package-level Run; an Arena retains one across runs
// so that its buffers are reused. All slices are resized (never shrunk) at
// the start of each run.
type runState struct {
	cfg    Config // set by the caller before run
	tmpl   *Template
	workA  []float64
	policy Policy // nil: every class at its maximum level
	tracer obs.Tracer
	met    *engineMetrics

	machine // the processors' class tables, derived once per machine
	place   PlacementPolicy
	multi   bool // more than one class: placement and pinning apply
	pin     bool // online dispatch on a multi-class machine: tasks keep their canonical class

	levels []int
	busy   []bool
	freeAt []float64
	npreds []int

	// adapt and adaptWork hold the template and work vector the []*Task
	// entry points convert their input into; seen is Seal's scratch.
	adapt     Template
	adaptWork []float64
	seen      []bool

	rq        readyQueue
	events    eventHeap
	seq       int
	remaining int
	now       float64

	res         Result
	dispatchErr error
}

// runTasks runs tasks through the template engine, converting them into
// the state's reusable template.
func (rs *runState) runTasks(tasks []*Task) (*Result, error) {
	rs.adaptWork = rs.adapt.load(tasks, rs.adaptWork)
	rs.seen = ensureBools(rs.seen, len(tasks))
	if err := rs.adapt.seal(rs.seen); err != nil {
		return nil, err
	}
	return rs.run(&rs.adapt, rs.adaptWork)
}

// run simulates one section: the sealed template tmpl with this run's
// actual work workA.
func (rs *runState) run(tmpl *Template, workA []float64) (*Result, error) {
	cfg := &rs.cfg
	m, err := rs.setupMachine(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.InitialLevels != nil {
		for i, lv := range cfg.InitialLevels {
			if lv < 0 || lv > rs.top[i] {
				return nil, fmt.Errorf("sim: InitialLevels[%d]=%d outside the platform's %d levels for processor class %d",
					i, lv, rs.top[i]+1, rs.cls[i])
			}
		}
	}
	if err := checkWork(cfg.Mode, tmpl, workA); err != nil {
		return nil, err
	}

	rs.tmpl, rs.workA = tmpl, workA
	rs.policy = cfg.Policy
	rs.place = cfg.Placement
	if rs.place == nil {
		rs.place = FastestFirst
	}
	rs.multi = len(rs.classes) > 1
	rs.pin = rs.multi && cfg.Mode == ByOrder

	// Processor state. The copy below is safe even when InitialLevels
	// aliases a previous run's FinalLevels from this same arena: ensureInts
	// preserves the backing array's contents.
	rs.levels = ensureInts(rs.levels, m)
	if cfg.InitialLevels != nil {
		copy(rs.levels, cfg.InitialLevels)
	} else {
		copy(rs.levels, rs.top)
	}
	rs.busy = ensureBools(rs.busy, m)
	rs.freeAt = ensureFloats(rs.freeAt, m)
	for i := range rs.freeAt {
		rs.freeAt[i] = cfg.Start
	}

	res := &rs.res
	res.Records = res.Records[:0]
	res.BusyTime = ensureFloats(res.BusyTime, m)
	res.OverheadTime = ensureFloats(res.OverheadTime, m)
	for i := 0; i < m; i++ {
		res.BusyTime[i] = 0
		res.OverheadTime[i] = 0
	}
	res.Finish = cfg.Start
	res.ActiveEnergy = 0
	res.OverheadEnergy = 0
	// Per-class energy is reported for Config.Hetero machines. Only a
	// multi-class run accumulates it per dispatch; a one-class
	// decomposition is the scalar totals, copied once the run ends.
	res.ClassActiveEnergy, res.ClassOverheadEnergy = nil, nil
	if rs.multi {
		for i := range rs.classActive {
			rs.classActive[i] = 0
			rs.classOverhead[i] = 0
		}
		res.ClassActiveEnergy, res.ClassOverheadEnergy = rs.classActive, rs.classOverhead
	}
	res.SpeedChanges = 0
	res.FinalLevels = nil
	res.Metrics = nil

	// Observability: both hooks are nil-gated so the default run pays one
	// pointer comparison per hook point and allocates nothing.
	rs.tracer = cfg.Tracer
	rs.met = nil
	if cfg.Metrics != nil {
		rs.met = newEngineMetrics(cfg.Metrics, m)
	}

	// Dependence bookkeeping.
	n := tmpl.Len()
	rs.npreds = ensureInts(rs.npreds, n)
	rs.rq.reset(cfg.Mode, tmpl)
	for i := range rs.npreds {
		rs.npreds[i] = tmpl.PredStart[i+1] - tmpl.PredStart[i]
		if rs.npreds[i] == 0 {
			rs.rq.push(i)
		}
	}

	rs.events.h = rs.events.h[:0]
	rs.seq = 0
	rs.remaining = n
	rs.now = cfg.Start
	rs.dispatchErr = nil

	rs.dispatch()
	for rs.remaining > 0 {
		if rs.dispatchErr != nil {
			return nil, rs.dispatchErr
		}
		ev, ok := rs.events.pop()
		if !ok {
			return nil, fmt.Errorf("sim: deadlock with %d tasks unfinished (bad precedence or order gating)", rs.remaining)
		}
		rs.now = ev.time
		rs.complete(ev.proc, ev.task, ev.time)
		// Drain every completion at this same instant before dispatching,
		// so that simultaneously freed processors compete for the next
		// task deterministically (idle-longest first, ties by index).
		for {
			next, ok := rs.events.peek()
			if !ok || next.time != rs.now {
				break
			}
			ev, _ = rs.events.pop()
			rs.complete(ev.proc, ev.task, ev.time)
		}
		if rs.dispatchErr != nil {
			return nil, rs.dispatchErr
		}
		rs.dispatch()
	}
	if rs.dispatchErr != nil {
		return nil, rs.dispatchErr
	}

	if cfg.Hetero != nil && !rs.multi {
		rs.classActive[0] = res.ActiveEnergy
		rs.classOverhead[0] = res.OverheadEnergy
		res.ClassActiveEnergy, res.ClassOverheadEnergy = rs.classActive, rs.classOverhead
	}
	res.FinalLevels = rs.levels
	if cfg.Metrics != nil {
		for i := 0; i < m; i++ {
			cfg.Metrics.Gauge(MetricProcBusy(i)).Add(res.BusyTime[i])
			cfg.Metrics.Gauge(MetricProcOverhead(i)).Add(res.OverheadTime[i])
		}
		snap := cfg.Metrics.Snapshot()
		res.Metrics = &snap
	}
	return res, nil
}

// complete marks task's execution on proc finished at time at, releasing
// the processor and its successors.
func (rs *runState) complete(proc, task int, at float64) {
	tmpl := rs.tmpl
	if rs.tracer != nil {
		rs.tracer.Event(obs.Event{
			Kind: obs.EvTaskFinish, Time: at, Proc: proc,
			Task: task, Node: tmpl.Node[task], Name: tmpl.Name[task],
			Level: rs.levels[proc], Prev: rs.levels[proc],
		})
	}
	rs.busy[proc] = false
	rs.freeAt[proc] = at
	if at > rs.res.Finish {
		rs.res.Finish = at
	}
	for _, s := range tmpl.SuccsOf(task) {
		rs.npreds[s]--
		if rs.npreds[s] == 0 {
			rs.rq.push(s)
		}
		if rs.npreds[s] < 0 && rs.dispatchErr == nil {
			rs.dispatchErr = fmt.Errorf("sim: task %q completed more predecessors than it has", tmpl.Name[s])
		}
	}
	rs.remaining--
}

// dispatch assigns ready tasks to idle processors until one side runs out.
//
// The head task goes to an idle processor that passes the feasibility
// guard. Within a class the processor idle longest wins, ties to the lower
// index; across classes the placement policy decides. On a multi-class
// machine online (ByOrder) dispatch pins every task to the class its
// canonical schedule ran it on: within a class the processors are
// identical, so the paper's Theorem-1 induction applies class by class and
// no task starts after its class-relative latest start time. Admitting any
// other class online — even a strictly faster one — is unsafe: a task
// migrated up and slowed to its (slow-class-derived) latest finish time
// squats on a fast processor that later tasks' canonical schedule needs,
// and the lateness cascades (a Graham timing anomaly). The task then waits
// even if foreign-class processors sit idle; its own class must free up,
// because it is running strictly earlier-ordered tasks. Dummy barrier
// tasks carry zero work and may complete on any processor, and canonical
// (ByPriority) runs admit every class — that is where the placement policy
// shapes the schedule and each task's class is decided.
//
// All frequency, power and overhead arithmetic uses the processor class's
// own DVS table with work retiring at the effective rate Speed·f; at Speed
// 1 (identical processors) each expression is bit-identical to plain f.
func (rs *runState) dispatch() {
	cfg := &rs.cfg
	res := &rs.res
	tmpl := rs.tmpl
	busy, freeAt, multi := rs.busy, rs.freeAt, rs.multi
	for {
		ti, ok := rs.rq.peek()
		if !ok {
			return
		}
		proc := -1
		for i := range busy {
			if busy[i] {
				continue
			}
			if multi {
				if rs.placedOver(ti, i, proc) {
					proc = i
				}
				continue
			}
			if proc < 0 || freeAt[i] < freeAt[proc] {
				proc = i
			}
		}
		if proc < 0 {
			return
		}
		rs.rq.pop()
		ci := rs.cls[proc]
		c := &rs.classes[ci]
		lv := c.lv
		now := rs.now
		cur := rs.levels[proc]
		lvl := cur
		dummy := tmpl.Dummy[ti]
		var compT, changeT float64
		if !dummy {
			compT = cfg.Overheads.CompTime(c.eff[cur])
			lvl = len(lv) - 1
			if rs.policy != nil {
				lvl = rs.policy.PickLevel(tmpl, ti, now, cur, ci)
				if lvl < 0 || lvl >= len(lv) {
					panic(fmt.Sprintf("sim: policy returned invalid level %d for task %q on processor %d", lvl, tmpl.Name[ti], proc))
				}
			}
			if lvl != cur {
				changeT = cfg.Overheads.ChangeTime(lv[cur], lv[lvl])
				res.SpeedChanges++
			}
		}
		var execT float64
		if w := rs.workA[ti]; w > 0 {
			execT = w / c.eff[lvl]
		}
		start := now + compT + changeT
		finish := start + execT
		if rs.tracer != nil {
			if idle := now - rs.freeAt[proc]; idle > 0 {
				rs.tracer.Event(obs.Event{
					Kind: obs.EvIdle, Time: now, Proc: proc,
					Task: -1, Node: -1, Value: idle,
				})
			}
			rs.tracer.Event(obs.Event{
				Kind: obs.EvTaskDispatch, Time: now, Proc: proc,
				Task: ti, Node: tmpl.Node[ti], Name: tmpl.Name[ti],
				Level: lvl, Prev: cur, Value: compT + changeT,
			})
			if lvl != cur {
				rs.tracer.Event(obs.Event{
					Kind: obs.EvSpeedChange, Time: now, Proc: proc,
					Task: ti, Node: tmpl.Node[ti], Name: tmpl.Name[ti],
					Level: lvl, Prev: cur, Value: changeT,
				})
			}
		}
		if rs.met != nil {
			if dummy {
				rs.met.dummies.Inc()
			} else {
				rs.met.tasks.Inc()
				rs.met.exec.Observe(execT)
			}
			if lvl != cur {
				rs.met.changes.Inc()
				rs.met.procChanges[proc].Inc()
			}
			if idle := now - rs.freeAt[proc]; idle > 0 {
				rs.met.idle.Observe(idle)
			}
		}
		res.Records = append(res.Records, Record{
			Task: ti, Proc: proc,
			Dispatch: now, Start: start, Finish: finish,
			Level: lvl, CompOH: compT, ChangeOH: changeT,
		})
		res.BusyTime[proc] += execT
		res.OverheadTime[proc] += compT + changeT
		// The speed computation runs at the old level; the transition is
		// charged at the higher-powered of the two levels (the paper does
		// not specify transition power; this choice is conservative and
		// documented in DESIGN.md).
		// Without a change changeT is 0 and its term would add +0, which
		// leaves the (never negative-zero) sums unchanged: skip it.
		pLvl, pCur := c.pow[lvl], c.pow[cur]
		res.ActiveEnergy += pLvl * execT
		res.OverheadEnergy += pCur * compT
		if lvl != cur {
			res.OverheadEnergy += math.Max(pCur, pLvl) * changeT
		}
		if res.ClassActiveEnergy != nil {
			// The class decomposition repeats each term rather than sharing
			// a subtotal, so the scalars keep their exact float association.
			res.ClassActiveEnergy[ci] += pLvl * execT
			res.ClassOverheadEnergy[ci] += pCur * compT
			if lvl != cur {
				res.ClassOverheadEnergy[ci] += math.Max(pCur, pLvl) * changeT
			}
		}
		rs.levels[proc] = lvl
		if finish == now {
			// Instantaneous work (synchronization nodes): the paper's
			// scheduler handles them and immediately looks for the
			// next task, so the processor never appears busy.
			rs.complete(proc, ti, now)
			if rs.dispatchErr != nil {
				return
			}
			continue
		}
		rs.busy[proc] = true
		rs.events.push(event{time: finish, seq: rs.seq, proc: proc, task: ti})
		rs.seq++
	}
}

// checkWork validates one run's per-run input against its template: the
// template is sealed (and ordered, for ByOrder runs) and every computation
// task's actual work is within its worst case.
func checkWork(mode Mode, tmpl *Template, workA []float64) error {
	if !tmpl.sealed {
		return fmt.Errorf("sim: template not sealed")
	}
	if mode == ByOrder && tmpl.orderErr != nil {
		return tmpl.orderErr
	}
	if len(workA) != tmpl.Len() {
		return fmt.Errorf("sim: %d actual works for %d tasks", len(workA), tmpl.Len())
	}
	for i, w := range workA {
		if !tmpl.Dummy[i] && w > tmpl.WorkW[i]*(1+1e-9) {
			return fmt.Errorf("sim: task %q actual work %g exceeds worst case %g", tmpl.Name[i], w, tmpl.WorkW[i])
		}
	}
	return nil
}

// event is a task-completion event.
type event struct {
	time float64
	seq  int // FIFO tie-break for simultaneous events
	proc int
	task int
}

// eventHeap is a binary min-heap of events ordered by (time, seq).
type eventHeap struct{ h []event }

func (e *eventHeap) less(i, j int) bool {
	if e.h[i].time != e.h[j].time {
		return e.h[i].time < e.h[j].time
	}
	return e.h[i].seq < e.h[j].seq
}

func (e *eventHeap) push(ev event) {
	e.h = append(e.h, ev)
	i := len(e.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.h[i], e.h[parent] = e.h[parent], e.h[i]
		i = parent
	}
}

func (e *eventHeap) peek() (event, bool) {
	if len(e.h) == 0 {
		return event{}, false
	}
	return e.h[0], true
}

func (e *eventHeap) pop() (event, bool) {
	if len(e.h) == 0 {
		return event{}, false
	}
	top := e.h[0]
	last := len(e.h) - 1
	e.h[0] = e.h[last]
	e.h = e.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(e.h) && e.less(l, small) {
			small = l
		}
		if r < len(e.h) && e.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		e.h[i], e.h[small] = e.h[small], e.h[i]
		i = small
	}
	return top, true
}

// readyQueue is the global ready queue. In ByOrder mode only the task with
// the next expected execution order is dispatchable (the order gate); in
// ByPriority mode the longest ready task goes first.
type readyQueue struct {
	mode Mode
	tmpl *Template

	// ByOrder: readyByOrder[o] is the index of the ready task with order o.
	readyByOrder []int
	nextOrder    int

	// ByPriority: pq[pqHead:] is the sorted queue of ready task indices,
	// longest WCET first, ties by node ID then arrival. The head index
	// replaces re-slicing on pop so the backing array survives reuse.
	pq     []int
	pqHead int
}

// reset prepares the queue for a new run, reusing buffers.
func (rq *readyQueue) reset(mode Mode, tmpl *Template) {
	rq.mode = mode
	rq.tmpl = tmpl
	rq.nextOrder = 0
	rq.pq = rq.pq[:0]
	rq.pqHead = 0
	if mode == ByOrder {
		rq.readyByOrder = ensureInts(rq.readyByOrder, tmpl.Len())
		for i := range rq.readyByOrder {
			rq.readyByOrder[i] = -1
		}
	}
}

func (rq *readyQueue) push(ti int) {
	if rq.mode == ByOrder {
		rq.readyByOrder[rq.tmpl.Order[ti]] = ti
		return
	}
	// Ordered insertion: place ti before the first queued task it must
	// precede (strictly longer WCET, ties by lower node ID), after any
	// equal tasks — exactly where a stable sort of the appended element
	// would land it. The queue is sorted under this strict weak ordering,
	// so "t precedes pq[i]" is monotone in i and sort.Search finds the
	// same position the linear scan did, in O(log n) comparisons.
	workW, node := rq.tmpl.WorkW, rq.tmpl.Node
	n := len(rq.pq) - rq.pqHead
	pos := rq.pqHead + sort.Search(n, func(i int) bool {
		o := rq.pq[rq.pqHead+i]
		return workW[ti] > workW[o] || (workW[ti] == workW[o] && node[ti] < node[o])
	})
	rq.pq = append(rq.pq, 0)
	copy(rq.pq[pos+1:], rq.pq[pos:])
	rq.pq[pos] = ti
}

// peek returns the next dispatchable task, honoring the order gate.
func (rq *readyQueue) peek() (int, bool) {
	if rq.mode == ByOrder {
		if rq.nextOrder >= len(rq.readyByOrder) {
			return 0, false
		}
		ti := rq.readyByOrder[rq.nextOrder]
		if ti < 0 {
			return 0, false
		}
		return ti, true
	}
	if rq.pqHead >= len(rq.pq) {
		return 0, false
	}
	return rq.pq[rq.pqHead], true
}

func (rq *readyQueue) pop() {
	if rq.mode == ByOrder {
		rq.nextOrder++
		return
	}
	rq.pqHead++
}
