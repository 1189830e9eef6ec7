package sim

import "fmt"

// ProcView is the per-processor state the engine exposes to a placement
// policy when it ranks two idle processors for a task: the processor's
// identity and class plus the class properties placements rank by. Views
// are only built for processors that pass the engine's per-class
// feasibility guard.
type ProcView struct {
	// Proc is the processor index.
	Proc int
	// Class is the processor's class index on the heterogeneous platform.
	Class int
	// FreeAt is the instant the processor last became idle.
	FreeAt float64
	// EffFmax is the class's maximal effective execution rate (Speed·f_max)
	// in cycles per second.
	EffFmax float64
	// EnergyPerCycle is the class's minimal achievable energy per cycle of
	// work, min over levels of P(f)/(Speed·f).
	EnergyPerCycle float64
}

// PlacementPolicy picks the processor a ready task is dispatched on. It is
// the pluggable queue-selection axis of the heterogeneous machine model:
// the engine scans the idle processors that pass its feasibility guard and
// keeps the one the policy prefers.
//
// The engine consults the policy only between processors of different
// classes. Within a class the processors are identical and the engine
// itself prefers the one idle longest, ties by lower index — so a policy
// must agree with that order on same-class pairs (the three built-in
// policies do, through fasterView's FreeAt/Proc tie-breaks), and a
// one-class machine never consults it.
//
// Policies must be deterministic pure functions of their arguments —
// schedules are replayed and differential-tested bit-for-bit.
type PlacementPolicy interface {
	// Name returns the policy's stable identifier ("fastest-first", ...).
	Name() string
	// Prefer reports whether task number task of template t should go to
	// processor a rather than b. It must be a strict total order over
	// processors (irreflexive, transitive), so that the engine's scan finds
	// its minimum.
	Prefer(t *Template, task int, a, b *ProcView) bool
}

// fasterView reports whether a should be preferred over b under the
// fastest-first ordering: higher effective f_max, then longer idle (lower
// FreeAt), then lower processor index. With a single class this reduces
// exactly to the engine's idle-longest-first processor pick.
func fasterView(a, b *ProcView) bool {
	if a.EffFmax != b.EffFmax {
		return a.EffFmax > b.EffFmax
	}
	if a.FreeAt != b.FreeAt {
		return a.FreeAt < b.FreeAt
	}
	return a.Proc < b.Proc
}

// fastestFirst always places on the fastest eligible class — the default
// policy.
type fastestFirst struct{}

func (fastestFirst) Name() string { return "fastest-first" }

func (fastestFirst) Prefer(_ *Template, _ int, a, b *ProcView) bool { return fasterView(a, b) }

// energyGreedy places on the eligible class with the lowest energy per
// cycle of work — accepting a slower processor whenever the feasibility
// guard proves the task still meets its latest finish time there. Ties fall
// back to the fastest-first ordering.
type energyGreedy struct{}

func (energyGreedy) Name() string { return "energy-greedy" }

func (energyGreedy) Prefer(_ *Template, _ int, a, b *ProcView) bool {
	if a.EnergyPerCycle != b.EnergyPerCycle {
		return a.EnergyPerCycle < b.EnergyPerCycle
	}
	return fasterView(a, b)
}

// classAffinity honors the task's class-affinity tag (Template.Affinity,
// assigned from `@class` annotations in the workload): processors of the
// preferred class come first, fastest-first among them; when none is
// eligible — the class is busy, absent, or infeasible for this task — the
// pick degrades to fastest-first over everything eligible.
type classAffinity struct{}

func (classAffinity) Name() string { return "class-affinity" }

func (classAffinity) Prefer(t *Template, task int, a, b *ProcView) bool {
	if aff := t.Affinity[task]; aff > 0 {
		want := aff - 1
		if aw, bw := a.Class == want, b.Class == want; aw != bw {
			return aw
		}
	}
	return fasterView(a, b)
}

// The placement policies. All are stateless; the package-level values are
// safe for concurrent use.
var (
	FastestFirst  PlacementPolicy = fastestFirst{}
	EnergyGreedy  PlacementPolicy = energyGreedy{}
	ClassAffinity PlacementPolicy = classAffinity{}
)

// PlacementNames lists the recognized placement-policy names in display
// order.
var PlacementNames = []string{"fastest-first", "energy-greedy", "class-affinity"}

// ParsePlacement resolves a placement policy by name; the empty string
// selects the default (fastest-first).
func ParsePlacement(name string) (PlacementPolicy, error) {
	switch name {
	case "", "fastest-first":
		return FastestFirst, nil
	case "energy-greedy":
		return EnergyGreedy, nil
	case "class-affinity":
		return ClassAffinity, nil
	}
	return nil, fmt.Errorf("sim: unknown placement policy %q (want fastest-first, energy-greedy or class-affinity)", name)
}
