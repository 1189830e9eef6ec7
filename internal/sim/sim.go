// Package sim implements the shared-memory multiprocessor machine model of
// the paper (§2.3) as a deterministic discrete-event simulator.
//
// The simulated system has m DVS processors grouped into classes — each
// class with its own DVS table and a speed multiplier — and a global ready
// queue kept in shared memory. The paper's machine, m identical processors,
// is the one-class case at Speed 1: Config.Platform describes it directly
// and the engine runs it through the same code path as a heterogeneous
// Config.Hetero, with bit-identical arithmetic (x·1.0 == x in IEEE-754).
//
// Each processor runs the scheduler independently: when idle it tries to
// fetch the next task from the queue; if the task it expects is not ready
// yet it goes to sleep and is woken when the task becomes available (the
// wait()/signal() protocol of the paper's Figure 2). The engine supports
// two dispatch disciplines:
//
//   - ByPriority: tasks are dequeued highest-priority-first (longest task
//     first) as soon as they are ready — used by the off-line phase to
//     build canonical schedules;
//   - ByOrder: tasks are dequeued strictly in a precomputed execution
//     order — the on-line discipline that makes greedy slack sharing safe
//     on multiprocessors (a processor sleeps while the next expected task
//     is not ready, even if later-ordered tasks are).
//
// On a multi-class machine a PlacementPolicy chooses among idle processors
// of different classes; within a class the processor idle longest takes
// the task (ties by index), as on identical processors.
//
// Speed selection is delegated to a Policy; the engine charges the speed
// computation overhead (cycles at the current frequency) and, when the
// chosen level differs from the processor's current one, the voltage/speed
// change overhead, and it integrates active, overhead and idle energy using
// the power model.
//
// The engine simulates one program section at a time (between Or
// synchronization barriers); the driver in internal/core chains sections
// together and resolves Or branches.
package sim

import (
	"fmt"

	"andorsched/internal/obs"
	"andorsched/internal/power"
)

// Task is one schedulable unit of the []*Task entry points (Run and
// Arena.Run): a computation node or a dummy And synchronization node of one
// program section. Work is measured in processor cycles (seconds-at-f_max ×
// f_max), so execution time at frequency f is work/f. The engine itself
// runs a Template, the same fields laid out per section, plus a vector of
// actual work; NewTemplate converts.
type Task struct {
	// Node is the graph node ID, for reporting only.
	Node int
	// Name labels the task in traces.
	Name string
	// Dummy marks And synchronization nodes: zero work, dispatched like a
	// task (the paper treats synchronization nodes as dummy tasks) but with
	// no speed computation and no overheads.
	Dummy bool
	// WorkW is the task's worst-case work in cycles.
	WorkW float64
	// WorkA is the actual work in cycles for this run (0 < WorkA ≤ WorkW
	// for computation tasks; 0 for dummies).
	WorkA float64
	// LFT is the task's absolute latest finish time: the instant by which
	// the task is guaranteed to finish in the shifted canonical schedule.
	// The engine never reads it and a Template has no such field: it is
	// run data, which a policy derives from its own state (internal/core
	// computes it per pickup from the deadline).
	LFT float64
	// Order is the task's canonical dispatch order within its section
	// (0-based, unique). Used in ByOrder mode.
	Order int
	// SpecRemain is a policy-owned statistic the engine carries but never
	// interprets: the off-line average-case time from this task's
	// canonical dispatch to the end of its section (used by the per-PMP
	// speculation scheme).
	SpecRemain float64
	// Affinity is the task's preferred processor class plus one; zero
	// means no preference. Only the class-affinity placement policy on
	// multi-class machines reads it (assigned from `@class` tags in .andor
	// workloads).
	Affinity int
	// CanonClass is the class the task ran on in the canonical schedule.
	// On a multi-class machine the engine's feasibility guard pins online
	// (ByOrder) dispatch to exactly this class: within a class processors
	// are identical, which is what carries the Theorem-1 safety induction
	// to unequal processors. One-class machines and canonical (ByPriority)
	// runs ignore it.
	CanonClass int
	// Preds and Succs are indices into the task slice.
	Preds, Succs []int
}

// Record reports one task execution.
type Record struct {
	// Task is the index of the task in the run's template (equally, in
	// the []*Task input).
	Task int
	// Proc is the executing processor index.
	Proc int
	// Dispatch is the time the task was dequeued.
	Dispatch float64
	// Start is the time execution proper began (after overheads).
	Start float64
	// Finish is the completion time.
	Finish float64
	// Level is the platform level index the task ran at.
	Level int
	// CompOH and ChangeOH are the speed-computation and speed-change
	// overhead durations charged before Start, in seconds.
	CompOH, ChangeOH float64
}

// Result aggregates one engine run (one program section).
type Result struct {
	// Records lists task executions in dispatch order.
	Records []Record
	// Finish is the completion time of the last task (the section end).
	Finish float64
	// BusyTime and OverheadTime are per-processor seconds spent executing
	// tasks and paying power-management overheads.
	BusyTime, OverheadTime []float64
	// ActiveEnergy and OverheadEnergy are the corresponding joules. Idle
	// energy depends on the accounting horizon and is added by the caller.
	ActiveEnergy, OverheadEnergy float64
	// ClassActiveEnergy and ClassOverheadEnergy decompose the two energies
	// by processor class on Config.Hetero runs (indexed by class, summing
	// exactly to the scalars above term by term); nil on Config.Platform
	// runs.
	ClassActiveEnergy, ClassOverheadEnergy []float64
	// SpeedChanges counts voltage/speed transitions.
	SpeedChanges int
	// FinalLevels is each processor's level index after the run, to carry
	// into the next section.
	FinalLevels []int
	// Metrics is a snapshot of Config.Metrics taken when the run finished;
	// nil unless a registry was configured. When the registry is shared
	// across sections or runs the snapshot reflects the accumulated state.
	Metrics *obs.Snapshot
}

// Mode selects the dispatch discipline.
type Mode uint8

const (
	// ByPriority dispatches ready tasks highest-priority-first (longest
	// task first, ties by node ID): the canonical-schedule discipline.
	ByPriority Mode = iota
	// ByOrder dispatches tasks strictly in their Order: the on-line
	// discipline.
	ByOrder
)

// Policy chooses the operating level for each computation task at dispatch
// time. Implementations live in internal/core (the paper's schemes).
type Policy interface {
	// PickLevel returns the level index — into the DVS table of the given
	// processor class — to run task number task of template t, dispatched
	// at time now on a processor of that class currently at level cur. The
	// class is always 0 on a Config.Platform machine. The engine charges
	// the speed-change overhead if the returned level differs from cur.
	PickLevel(t *Template, task int, now float64, cur int, class int) int
}

// Config parameterizes an engine run.
type Config struct {
	// Platform is the DVS model of an identical-processor machine: Procs
	// processors forming one class at Speed 1. Ignored when Hetero is set.
	Platform *power.Platform
	// Hetero, when non-nil, is the machine: each processor belongs to a
	// class with its own DVS table and speed multiplier, and on more than
	// one class the Placement policy picks among them behind a per-class
	// feasibility guard. Platform is ignored; the processor count is the
	// platform's. The Result additionally decomposes energy by class.
	Hetero *power.Hetero
	// Placement ranks idle processors of different classes for each ready
	// task; nil defaults to FastestFirst. A one-class machine never
	// consults it.
	Placement PlacementPolicy
	// Overheads are the power-management costs. Zero values disable them
	// (used for canonical schedules and for the static schemes, which
	// perform no run-time speed computation).
	Overheads power.Overheads
	// Mode is the dispatch discipline.
	Mode Mode
	// Policy chooses levels; nil runs everything at each class's maximum
	// level (canonical schedules, NPM).
	Policy Policy
	// Start is the simulation start time (the section's begin).
	Start float64
	// Procs is the processor count; used when InitialLevels is nil.
	Procs int
	// InitialLevels, if non-nil, gives each processor's level at Start and
	// implies the processor count. When Procs is also set the two must
	// agree; Run rejects mismatches.
	InitialLevels []int
	// Tracer, if non-nil, receives structured events (task dispatch/finish,
	// speed changes, idle intervals) as the simulation progresses. The nil
	// default keeps the hot path free of tracing work and allocations.
	Tracer obs.Tracer
	// Metrics, if non-nil, is updated with engine counters and histograms
	// (see the sim.Metric* name helpers); a snapshot is attached to the
	// Result. Sharing one registry across sections accumulates.
	Metrics *obs.Metrics
}

// Metrics names used by the engine. Per-processor instruments embed the
// processor index; use the helper functions to construct them.
const (
	// MetricTasks counts non-dummy task dispatches (counter).
	MetricTasks = "sim.tasks.dispatched"
	// MetricDummies counts dummy (And synchronization) dispatches (counter).
	MetricDummies = "sim.tasks.dummy"
	// MetricSpeedChanges counts voltage/speed transitions (counter).
	MetricSpeedChanges = "sim.speed.changes"
	// MetricExecSeconds is the per-task execution time histogram.
	MetricExecSeconds = "sim.task.exec_seconds"
	// MetricIdleSeconds is the per-interval processor idle time histogram.
	MetricIdleSeconds = "sim.idle.seconds"
)

// MetricProcBusy names the gauge accumulating processor i's busy seconds.
func MetricProcBusy(i int) string { return fmt.Sprintf("sim.proc.%d.busy_seconds", i) }

// MetricProcOverhead names the gauge accumulating processor i's
// power-management overhead seconds.
func MetricProcOverhead(i int) string { return fmt.Sprintf("sim.proc.%d.overhead_seconds", i) }

// MetricProcSpeedChanges names the counter of processor i's voltage/speed
// transitions.
func MetricProcSpeedChanges(i int) string { return fmt.Sprintf("sim.proc.%d.speed_changes", i) }
