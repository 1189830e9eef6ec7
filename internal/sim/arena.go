package sim

// Arena owns every piece of per-run scratch state the engine needs: the
// processor tables (levels, busy, freeAt), the dependence counters, the
// ready queue, the event heap, and the Result's record/timeline buffers.
// Acquiring one Arena per worker and reusing it across runs makes
// steady-state engine runs allocation-free: after a warm-up run on the
// largest section, (*Arena).RunTemplate and (*Arena).Run perform zero heap
// allocations as long as Config.Tracer and Config.Metrics are nil.
//
// An Arena is not safe for concurrent use; use one per goroutine. Results
// are bit-identical to the package-level Run for any reuse pattern: the
// arena only recycles memory, never state.
type Arena struct {
	rs runState
}

// NewArena returns an empty Arena. Buffers grow on first use and are
// retained across runs.
func NewArena() *Arena { return &Arena{} }

// RunTemplate runs one section from its sealed template and this run's
// actual work (workA[i] for task i; 0 for dummies): the engine's one
// entry point. The returned Result and every slice it references
// (Records, BusyTime, OverheadTime, FinalLevels) are owned by the arena
// and valid only until the next run on the same arena; callers that need
// the data longer must copy it. Neither tmpl nor workA is retained or
// modified.
func (a *Arena) RunTemplate(cfg Config, tmpl *Template, workA []float64) (*Result, error) {
	a.rs.cfg = cfg
	return a.rs.run(tmpl, workA)
}

// Run is the arena-threaded form of the package-level Run: identical
// semantics and bit-identical results, with the task conversion and all
// scratch state in the arena. Result ownership is as for RunTemplate.
func (a *Arena) Run(cfg Config, tasks []*Task) (*Result, error) {
	a.rs.cfg = cfg
	return a.rs.runTasks(tasks)
}

// ensureInts returns buf resized to n, reusing its backing array when the
// capacity suffices. Contents are unspecified; callers overwrite.
func ensureInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// ensureFloats is ensureInts for float64 slices.
func ensureFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ensureBools returns buf resized to n with every element false.
func ensureBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}
