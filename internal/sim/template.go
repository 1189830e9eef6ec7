package sim

import "fmt"

// Template is one program section's engine input minus the run: each
// task's plan-constant fields (those of Task but WorkA and LFT), one slice
// per field indexed by task, with the edges in compressed sparse rows. A
// run pairs it with a vector of actual work (Arena.RunTemplate), so the
// runs of one section share it and copy nothing.
//
// Fill the fields, then call Seal, which checks the edges and the dispatch
// order once. A sealed template must not be modified: the engine trusts
// Seal's checks instead of repeating them per run, and any number of
// goroutines may run one template concurrently.
type Template struct {
	Node       []int
	Name       []string
	Dummy      []bool
	WorkW      []float64
	Order      []int // a permutation of 0..n-1; ByOrder runs require it
	SpecRemain []float64
	Affinity   []int
	CanonClass []int
	// Task i's predecessors are Preds[PredStart[i]:PredStart[i+1]], so
	// PredStart has one entry more than there are tasks; SuccStart and
	// Succs hold the successors the same way.
	PredStart, Preds []int
	SuccStart, Succs []int

	sealed   bool
	orderErr error // why Order is not a permutation; nil when it is
}

// Len returns the number of tasks.
func (t *Template) Len() int { return len(t.Node) }

// PredsOf returns task i's predecessors.
func (t *Template) PredsOf(i int) []int { return t.Preds[t.PredStart[i]:t.PredStart[i+1]] }

// SuccsOf returns task i's successors.
func (t *Template) SuccsOf(i int) []int { return t.Succs[t.SuccStart[i]:t.SuccStart[i+1]] }

// Seal validates the template: every field has one entry per task and
// every edge row is well formed and names tasks. It also records whether
// Order is a permutation, which only ByOrder runs need, so a template
// sealed before its dispatch order is known still runs ByPriority. Seal
// again after changing a field.
func (t *Template) Seal() error {
	var buf [64]bool // most sections are small: no allocation
	seen := buf[:]
	if n := t.Len(); n > len(buf) {
		seen = make([]bool, n)
	}
	return t.seal(seen)
}

// seal is Seal with caller-owned order-check scratch of at least Len()
// entries.
func (t *Template) seal(seen []bool) error {
	t.sealed, t.orderErr = false, nil
	n := len(t.Node)
	if len(t.Name) != n || len(t.Dummy) != n || len(t.WorkW) != n || len(t.Order) != n ||
		len(t.SpecRemain) != n || len(t.Affinity) != n || len(t.CanonClass) != n ||
		len(t.PredStart) != n+1 || len(t.SuccStart) != n+1 {
		return fmt.Errorf("sim: template fields disagree on the task count %d", n)
	}
	if err := checkRows(t, "predecessor", t.PredStart, t.Preds); err != nil {
		return err
	}
	if err := checkRows(t, "successor", t.SuccStart, t.Succs); err != nil {
		return err
	}
	seen = seen[:n]
	clear(seen)
	for i, o := range t.Order {
		if o < 0 || o >= n || seen[o] {
			t.orderErr = fmt.Errorf("sim: task %q has invalid or duplicate order %d", t.Name[i], o)
			break
		}
		seen[o] = true
	}
	t.sealed = true
	return nil
}

// checkRows validates one CSR edge table of t.
func checkRows(t *Template, kind string, start, edges []int) error {
	n := len(t.Node)
	if start[0] != 0 || start[n] != len(edges) {
		return fmt.Errorf("sim: template %s rows do not span the %d edges", kind, len(edges))
	}
	for i := 0; i < n; i++ {
		if start[i+1] < start[i] {
			return fmt.Errorf("sim: task %q has a malformed %s row", t.Name[i], kind)
		}
		for _, e := range edges[start[i]:start[i+1]] {
			if e < 0 || e >= n {
				return fmt.Errorf("sim: task %q has out-of-range %s %d", t.Name[i], kind, e)
			}
		}
	}
	return nil
}

// NewTemplate builds and seals the template of tasks and returns it with
// their actual work: the conversion Run and Arena.Run make per call.
func NewTemplate(tasks []*Task) (*Template, []float64, error) {
	t := new(Template)
	workA := t.load(tasks, nil)
	if err := t.Seal(); err != nil {
		return nil, nil, err
	}
	return t, workA, nil
}

// load fills t (unsealed) from tasks, reusing its buffers, and returns the
// tasks' actual work in workA's buffer.
func (t *Template) load(tasks []*Task, workA []float64) []float64 {
	n := len(tasks)
	t.Node = ensureInts(t.Node, n)
	if cap(t.Name) < n {
		t.Name = make([]string, n)
	}
	t.Name = t.Name[:n]
	t.Dummy = ensureBools(t.Dummy, n)
	t.WorkW = ensureFloats(t.WorkW, n)
	t.Order = ensureInts(t.Order, n)
	t.SpecRemain = ensureFloats(t.SpecRemain, n)
	t.Affinity = ensureInts(t.Affinity, n)
	t.CanonClass = ensureInts(t.CanonClass, n)
	t.PredStart = ensureInts(t.PredStart, n+1)
	t.SuccStart = ensureInts(t.SuccStart, n+1)
	t.Preds, t.Succs = t.Preds[:0], t.Succs[:0]
	workA = ensureFloats(workA, n)
	for i, task := range tasks {
		t.Node[i], t.Name[i], t.Dummy[i] = task.Node, task.Name, task.Dummy
		t.WorkW[i], t.Order[i], t.SpecRemain[i] = task.WorkW, task.Order, task.SpecRemain
		t.Affinity[i], t.CanonClass[i] = task.Affinity, task.CanonClass
		t.PredStart[i], t.SuccStart[i] = len(t.Preds), len(t.Succs)
		t.Preds = append(t.Preds, task.Preds...)
		t.Succs = append(t.Succs, task.Succs...)
		workA[i] = task.WorkA
	}
	t.PredStart[n], t.SuccStart[n] = len(t.Preds), len(t.Succs)
	return workA
}
