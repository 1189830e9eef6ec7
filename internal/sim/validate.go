package sim

import (
	"fmt"
	"math"
	"sort"

	"andorsched/internal/power"
)

// valTol absorbs floating-point accumulation in schedule arithmetic.
const valTol = 1e-9

// ValidateResult is an independent oracle that cross-checks an engine run
// against the machine model's invariants. It is used by tests (and by
// core.RunConfig.Validate) to catch scheduling bugs structurally rather
// than through aggregate outcomes. It verifies that:
//
//   - every task executed exactly once, at a valid level, not before start;
//   - each record's arithmetic holds: Start = Dispatch + overheads and
//     Finish − Start = WorkA / f(level);
//   - no two records overlap on the same processor;
//   - every task was dispatched only after all its predecessors finished;
//   - in ByOrder mode, dispatch times are non-decreasing in task order
//     (the order-gate discipline);
//   - the per-processor busy/overhead totals match the records.
//
// cfg is the configuration the run was made with: its machine (each
// record's level bound and duration are checked against its processor
// class's own DVS table and effective rate Speed·f), Mode and Start; tmpl
// and workA are the run's template and actual work.
func ValidateResult(cfg Config, tmpl *Template, workA []float64, res *Result) error {
	h := cfg.Hetero
	if h == nil {
		var err error
		if h, err = power.Homogeneous(cfg.Platform, len(res.BusyTime)); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	mode, start := cfg.Mode, cfg.Start
	n, name := tmpl.Len(), tmpl.Name
	if len(res.Records) != n {
		return fmt.Errorf("sim: %d records for %d tasks", len(res.Records), n)
	}
	byTask := make([]*Record, n)
	for i := range res.Records {
		r := &res.Records[i]
		if r.Task < 0 || r.Task >= n {
			return fmt.Errorf("sim: record references task %d", r.Task)
		}
		if byTask[r.Task] != nil {
			return fmt.Errorf("sim: task %q executed twice", name[r.Task])
		}
		byTask[r.Task] = r
		if r.Proc < 0 || r.Proc >= len(res.BusyTime) || r.Proc >= h.NumProcs() {
			return fmt.Errorf("sim: record on unknown processor %d", r.Proc)
		}
		cl := h.Class(h.ClassOf(r.Proc))
		platform, speed := cl.Plat, cl.Speed
		if r.Level < 0 || r.Level >= platform.NumLevels() {
			return fmt.Errorf("sim: task %q ran at invalid level %d", name[r.Task], r.Level)
		}
		if r.Dispatch < start-valTol {
			return fmt.Errorf("sim: task %q dispatched at %g before start %g", name[r.Task], r.Dispatch, start)
		}
		if math.Abs(r.Start-(r.Dispatch+r.CompOH+r.ChangeOH)) > valTol {
			return fmt.Errorf("sim: task %q start %g ≠ dispatch %g + overheads %g",
				name[r.Task], r.Start, r.Dispatch, r.CompOH+r.ChangeOH)
		}
		wantDur := workA[r.Task] / (platform.Levels()[r.Level].Freq * speed)
		if math.Abs((r.Finish-r.Start)-wantDur) > valTol {
			return fmt.Errorf("sim: task %q duration %g ≠ work/freq %g",
				name[r.Task], r.Finish-r.Start, wantDur)
		}
	}

	// Processor occupancy: records on one processor must not overlap.
	byProc := map[int][]*Record{}
	for i := range res.Records {
		r := &res.Records[i]
		byProc[r.Proc] = append(byProc[r.Proc], r)
	}
	busy := map[int]float64{}
	oh := map[int]float64{}
	for proc, rs := range byProc {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Dispatch < rs[j].Dispatch })
		for i, r := range rs {
			if i > 0 && r.Dispatch < rs[i-1].Finish-valTol {
				return fmt.Errorf("sim: processor %d runs %q before %q finished",
					proc, name[r.Task], name[rs[i-1].Task])
			}
			busy[proc] += r.Finish - r.Start
			oh[proc] += r.CompOH + r.ChangeOH
		}
	}
	for proc := range byProc {
		if proc < 0 || proc >= len(res.BusyTime) {
			return fmt.Errorf("sim: record on unknown processor %d", proc)
		}
		if math.Abs(busy[proc]-res.BusyTime[proc]) > valTol || math.Abs(oh[proc]-res.OverheadTime[proc]) > valTol {
			return fmt.Errorf("sim: processor %d busy/overhead totals disagree with records", proc)
		}
	}

	// Precedence: a task may not be dispatched before its predecessors
	// finished.
	for ti := 0; ti < n; ti++ {
		for _, pi := range tmpl.PredsOf(ti) {
			if byTask[ti].Dispatch < byTask[pi].Finish-valTol {
				return fmt.Errorf("sim: task %q dispatched at %g before predecessor %q finished at %g",
					name[ti], byTask[ti].Dispatch, name[pi], byTask[pi].Finish)
			}
		}
	}

	// Order gate: dispatch instants must be non-decreasing in task order.
	if mode == ByOrder {
		inOrder := make([]*Record, n)
		for ti, o := range tmpl.Order {
			inOrder[o] = byTask[ti]
		}
		for i := 1; i < len(inOrder); i++ {
			if inOrder[i].Dispatch < inOrder[i-1].Dispatch-valTol {
				return fmt.Errorf("sim: order gate violated: order %d dispatched at %g before order %d at %g",
					i, inOrder[i].Dispatch, i-1, inOrder[i-1].Dispatch)
			}
		}
	}
	return nil
}
