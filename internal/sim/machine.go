package sim

import (
	"fmt"

	"andorsched/internal/power"
)

// machine holds the processor tables of one machine: each class's DVS
// table and speed, and each processor's class. An identical-processor
// Config.Platform is the one-class machine at Speed 1, so the engine has a
// single dispatch path. The tables are derived from the configuration once
// and reused while an arena's runs keep the same machine (platforms are
// immutable, so the pointers identify it).
type machine struct {
	keyHetero *power.Hetero
	keyPlat   *power.Platform
	keyProcs  int

	classes []classInfo
	cls     []int // per-processor class index
	top     []int // per-processor maximum level index

	// Backing stores of Result.ClassActiveEnergy/ClassOverheadEnergy.
	classActive, classOverhead []float64
	// va and vb are placement-view scratch: views handed to a policy
	// live here, so an interface call never moves them to the heap.
	va, vb ProcView
}

// classInfo is one processor class as the engine uses it.
type classInfo struct {
	plat *power.Platform
	lv   []power.Level
	// eff is each level's effective execution rate Speed·f and pow its
	// dynamic power — computed once, so the dispatch loop's products are
	// the same floats.
	eff, pow []float64
	// effFmax and epc are the class properties placement policies rank by;
	// filled only on multi-class machines, the only ones that consult a
	// policy.
	effFmax, epc float64
}

// setupMachine derives the machine tables of cfg and returns its processor
// count, rejecting configurations whose processor count is inconsistent.
func (rs *runState) setupMachine(cfg *Config) (int, error) {
	var m int
	switch {
	case cfg.Hetero != nil:
		m = cfg.Hetero.NumProcs()
		if cfg.Procs > 0 && cfg.Procs != m {
			return 0, fmt.Errorf("sim: Procs=%d disagrees with the heterogeneous platform's %d processors",
				cfg.Procs, m)
		}
		if cfg.InitialLevels != nil && len(cfg.InitialLevels) != m {
			return 0, fmt.Errorf("sim: len(InitialLevels)=%d disagrees with the heterogeneous platform's %d processors",
				len(cfg.InitialLevels), m)
		}
	case cfg.Platform != nil:
		m = cfg.Procs
		if cfg.InitialLevels != nil {
			if cfg.Procs > 0 && cfg.Procs != len(cfg.InitialLevels) {
				return 0, fmt.Errorf("sim: Procs=%d disagrees with len(InitialLevels)=%d; set one or make them match",
					cfg.Procs, len(cfg.InitialLevels))
			}
			m = len(cfg.InitialLevels)
		}
	default:
		return 0, fmt.Errorf("sim: no machine configured (set Platform or Hetero)")
	}
	if m <= 0 {
		return 0, fmt.Errorf("sim: no processors configured")
	}
	mc := &rs.machine
	if mc.keyHetero == cfg.Hetero && mc.keyPlat == cfg.Platform && mc.keyProcs == m {
		return m, nil
	}
	mc.keyHetero, mc.keyPlat, mc.keyProcs = nil, nil, 0
	mc.cls = ensureInts(mc.cls, m)
	mc.top = ensureInts(mc.top, m)
	if h := cfg.Hetero; h != nil {
		nc := h.NumClasses()
		if cap(mc.classes) < nc {
			mc.classes = make([]classInfo, nc)
		}
		mc.classes = mc.classes[:nc]
		for c := range mc.classes {
			cl := h.Class(c)
			mc.classes[c].set(cl.Plat, cl.Speed)
			if nc > 1 {
				mc.classes[c].effFmax = cl.EffFmax()
				mc.classes[c].epc = cl.EnergyPerCycle()
			}
		}
		for i := range mc.cls {
			mc.cls[i] = h.ClassOf(i)
			mc.top[i] = len(mc.classes[mc.cls[i]].lv) - 1
		}
	} else {
		if cap(mc.classes) < 1 {
			mc.classes = make([]classInfo, 1)
		}
		mc.classes = mc.classes[:1]
		mc.classes[0].set(cfg.Platform, 1)
		for i := range mc.cls {
			mc.cls[i] = 0
			mc.top[i] = len(mc.classes[0].lv) - 1
		}
	}
	mc.classActive = ensureFloats(mc.classActive, len(mc.classes))
	mc.classOverhead = ensureFloats(mc.classOverhead, len(mc.classes))
	mc.keyHetero, mc.keyPlat, mc.keyProcs = cfg.Hetero, cfg.Platform, m
	return m, nil
}

// set fills c for a class of the given table and speed, reusing its
// buffer.
func (c *classInfo) set(plat *power.Platform, speed float64) {
	lv := plat.Levels()
	*c = classInfo{plat: plat, lv: lv, eff: ensureFloats(c.eff, len(lv)), pow: ensureFloats(c.pow, len(lv))}
	for i := range lv {
		c.eff[i] = lv[i].Freq * speed
		c.pow[i] = plat.PowerAt(i)
	}
}

// placedOver reports whether idle processor i of a multi-class machine
// may take task ti and should, rather than processor j (j < i; -1 when no
// processor is chosen yet). Within a class the processor idle longest
// wins, ties to the lower index; across classes the placement policy
// decides.
func (rs *runState) placedOver(ti, i, j int) bool {
	if rs.pin && !rs.tmpl.Dummy[ti] && rs.cls[i] != rs.tmpl.CanonClass[ti] {
		return false
	}
	switch {
	case j < 0:
		return true
	case rs.cls[i] == rs.cls[j]:
		return rs.freeAt[i] < rs.freeAt[j]
	}
	rs.view(&rs.va, i)
	rs.view(&rs.vb, j)
	return rs.place.Prefer(rs.tmpl, ti, &rs.va, &rs.vb)
}

// view fills v with processor i's placement view.
func (rs *runState) view(v *ProcView, i int) {
	c := &rs.classes[rs.cls[i]]
	*v = ProcView{Proc: i, Class: rs.cls[i], FreeAt: rs.freeAt[i], EffFmax: c.effFmax, EnergyPerCycle: c.epc}
}
