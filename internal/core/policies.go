package core

import (
	"math"

	"andorsched/internal/obs"
	"andorsched/internal/power"
	"andorsched/internal/sim"
)

// feasTol absorbs floating-point noise in feasibility comparisons.
const feasTol = 1e-9

// policy implements sim.Policy for all the schemes. The zero-cost static
// schemes (NPM, SPM) use a fixed level; the dynamic schemes combine the
// greedy slack-sharing level with a scheme-specific speculative floor.
//
// Every level-valued scheme quantity is kept per processor class: a level
// index is only meaningful relative to a class's own DVS table, so each
// scheme speed is an effective frequency quantized per class. An
// identical-processor plan is the one class at Speed 1, where every entry
// is exactly the paper's scalar (x/1.0 == x and x·1.0 == x in IEEE-754).
type policy struct {
	plan *Plan
	d    float64 // deadline

	scheme Scheme
	cls    []classPolicy // indexed by processor class

	// relLFT is the current section's deadline-relative latest finish
	// times (secPlan.relLFT), installed by resetSection: task i's latest
	// finish time is d + relLFT[i].
	relLFT []float64

	// ASP: the remaining average-case time after the current section's
	// exit barrier, refreshed at each barrier; combined with each task's
	// SpecRemain statistic at pickup time.
	remAvgAfter float64

	// ORA: the online α-estimator that rescales AS's remaining-time
	// assumption. Part of the policy value, so it lives in the run's Arena
	// and never touches the shared Plan.
	ora oraEstimator

	// Observability hooks, attached by the run driver; all nil by default
	// so undecorated runs pay only nil checks.
	tracer obs.Tracer
	hSlack *obs.Histogram
	cSteal *obs.Counter
	gAlpha *obs.Gauge
}

// classPolicy is one processor class's share of a policy.
type classPolicy struct {
	classPlan
	// fixed is the constant level of NPM, SPM and CLV.
	fixed int
	// SS1/SS2/AS/ORA: floorAt returns the speculative floor level at time
	// t. For SS1 it is constant; for SS2 it switches from low to high at
	// switchAt; for AS and ORA it is reset at each barrier.
	floorLow, floorHigh int
	switchAt            float64
}

// attachObs wires the run's tracer and metrics into the policy's pickup
// path. The dynamic schemes emit a slack-share event per pickup and a
// slack-steal event when a speculative floor overrides the greedy level.
func (pol *policy) attachObs(tracer obs.Tracer, m *obs.Metrics) {
	pol.tracer = tracer
	if m != nil {
		pol.hSlack = m.Histogram(MetricSlackShare, obs.DefaultTimeBuckets)
		pol.cSteal = m.Counter(MetricSlackSteals)
		if pol.scheme == ORA {
			pol.gAlpha = m.Gauge(MetricORAAlpha)
			pol.gAlpha.Set(pol.ora.alpha)
		}
	}
}

// newPolicy builds the scheme's policy for one run with deadline d.
func newPolicy(p *Plan, scheme Scheme, d float64) *policy {
	pol := new(policy)
	pol.init(p, scheme, d)
	return pol
}

// init (re)configures pol in place for one run with deadline d, clearing
// any state left by a previous run — arenas reuse one policy value across
// runs without allocating (the per-class buffer survives the reset).
//
// A static or speculative speed is really a stretch factor — a fraction
// of f_max — applied to the canonical schedule; on unequal classes that
// stretch applies to each class's own table, so every scheme quantity
// becomes the class's f_max times the fraction, quantized per class.
// Stretching each class by the common fraction CT/D slows the whole
// canonical schedule uniformly, which is what carries the paper's safety
// argument across (docs/MODEL.md); dividing a reference-effective
// frequency by Speed instead would over-drive slow classes and saturate
// them at their maxima.
func (pol *policy) init(p *Plan, scheme Scheme, d float64) {
	cls := pol.cls
	*pol = policy{plan: p, d: d, scheme: scheme}
	nc := p.mach.NumClasses()
	if cap(cls) < nc {
		cls = make([]classPolicy, nc)
	}
	pol.cls = cls[:nc]
	for c := range pol.cls {
		pol.cls[c] = classPolicy{classPlan: p.classes[c]}
		cp := &pol.cls[c]
		fmax := cp.plat.Max().Freq
		switch scheme {
		case NPM, CLV:
			// CLV's probe pass runs flat out; runClairvoyant then installs
			// the per-class stretch of the probe's finish time.
			cp.fixed = cp.plat.MaxIndex()
		case SPM:
			// Static power management: stretch the canonical worst case of
			// the longest path over the whole deadline, rounded up to a
			// level.
			cp.fixed = cp.plat.QuantizeUp(fmax * p.CTWorst / d)
		case SS1:
			cp.floorLow = cp.plat.QuantizeUp(fmax * p.CTAvg / d)
			cp.floorHigh = cp.floorLow
		case SS2:
			// Two-speed static speculation: run at the level just below the
			// speculative speed until T_s, then at the level just above,
			// where T_s balances the average-case work over the deadline:
			// f_low·T_s + f_high·(D − T_s) = f_max·CT_avg. The pair and the
			// switch point are class-local.
			fspec := fmax * p.CTAvg / d
			cp.floorLow = cp.plat.QuantizeDown(fspec)
			cp.floorHigh = cp.plat.QuantizeUp(fspec)
			if cp.floorLow != cp.floorHigh {
				fl := cp.plat.Levels()[cp.floorLow].Freq
				fh := cp.plat.Levels()[cp.floorHigh].Freq
				cp.switchAt = d * (fh - fspec) / (fh - fl)
			}
		}
		// AS and ORA: resetSection sets the floors before the first task
		// runs.
	}
	if scheme == ORA {
		pol.ora.init(p, 0)
	}
}

// setORAWeight overrides the estimator's EWMA weight after init: w = 0
// keeps DefaultORAWeight, w < 0 freezes the estimator (ORA then reproduces
// AS exactly), and 0 < w ≤ 1 is used as-is. A no-op for other schemes.
func (pol *policy) setORAWeight(w float64) {
	if pol.scheme == ORA && w != 0 {
		pol.ora.eta = w
	}
}

// resetSection recomputes the adaptive-speculation floor when execution
// reaches the section with the given ID at time now (at the start and after
// every OR synchronization node, §4.2):
// f_spec = f_max · T_avg,remaining / (D − now), per class on its own table.
// ORA uses the same rule with the static remaining-time assumption rescaled
// by its estimator: the measured dynamic slack of the sections behind us is
// redistributed over the sections ahead. With scale ≡ 1 (empty or frozen
// history) the arithmetic below is bit-identical to AS's.
func (pol *policy) resetSection(sectionID int, now float64) {
	pol.relLFT = pol.plan.secs[sectionID].relLFT
	switch pol.scheme {
	case AS, ORA:
		left := pol.d - now
		var rem float64
		if left > 0 {
			rem = pol.plan.SectionAvgRemaining(sectionID)
			if pol.scheme == ORA {
				rem = pol.ora.scale() * rem
			}
		}
		for c := range pol.cls {
			cp := &pol.cls[c]
			if left <= 0 {
				cp.floorLow = cp.plat.MaxIndex()
			} else {
				cp.floorLow = cp.plat.QuantizeUp(cp.plat.Max().Freq * rem / left)
			}
			cp.floorHigh = cp.floorLow
		}
	case ASP:
		pol.remAvgAfter = pol.plan.secs[sectionID].remAvg
	}
}

// observeSection folds one completed section's observed actual/worst-case
// execution ratios into ORA's α-estimator, in the section's deterministic
// compute-task order. works holds the section's actual cycles by task index
// (the resolved script's layout). Called by the run driver after the
// section finishes — the estimator only ever sees the past, even though the
// whole script is resolved up front. A no-op for every other scheme.
func (pol *policy) observeSection(sp *secPlan, works []float64) {
	if pol.scheme != ORA {
		return
	}
	for j, ti := range sp.computeIdx {
		w := sp.wcets[j] * pol.plan.fmax // worst-case cycles, unpadded
		if w <= 0 {
			continue
		}
		pol.ora.observe(works[ti] / w)
	}
	if pol.gAlpha != nil {
		pol.gAlpha.Set(pol.ora.alpha)
	}
}

// floorAt returns the speculative floor level, on class cp's table, for a
// task with speculation statistic specRemain picked at time now
// (SS1/SS2/AS/ORA/ASP), or -1 when the scheme has none (GSS).
func (pol *policy) floorAt(specRemain, now float64, cp *classPolicy) int {
	switch pol.scheme {
	case SS1, AS, ORA:
		return cp.floorLow
	case SS2:
		if now < cp.switchAt {
			return cp.floorLow
		}
		return cp.floorHigh
	case ASP:
		// Per-PMP speculation: remaining average-case work is the task's
		// within-section PMP statistic plus the average remainder after
		// the section's barrier.
		left := pol.d - now
		if left <= 0 {
			return cp.plat.MaxIndex()
		}
		f := cp.plat.Max().Freq * (specRemain + pol.remAvgAfter) / left
		return cp.plat.QuantizeUp(f)
	}
	return -1
}

// PickLevel implements sim.Policy: every frequency is read through the
// class's effective rate Speed·f and every level is quantized on the
// class's own table. Task ti's latest finish time is the deadline plus its
// plan-relative one.
func (pol *policy) PickLevel(tmpl *sim.Template, ti int, now float64, cur int, ci int) int {
	cp := &pol.cls[ci]
	switch pol.scheme {
	case NPM, SPM, CLV:
		return cp.fixed
	}
	return pol.pick(tmpl, ti, pol.d+pol.relLFT[ti], now, cur, cp)
}

// pick is a dynamic scheme's level for task ti of tmpl, with latest finish
// time lft: the greedy slack-sharing level, raised to the speculative
// floor when the floor's speed change still fits the allocation.
func (pol *policy) pick(tmpl *sim.Template, ti int, lft, now float64, cur int, cp *classPolicy) int {
	workW := tmpl.WorkW[ti]
	g := pol.gssPick(workW, lft, now, cur, cp)
	lvl := g
	if flr := pol.floorAt(tmpl.SpecRemain[ti], now, cp); flr > g {
		// The speculative floor is above the slack-sharing level. Running
		// faster is always timing-safe provided the change overhead (if
		// any) still fits the allocation.
		if flr == cur {
			lvl = cur
		} else {
			avail := lft - now - pol.plan.Overheads.CompTime(cp.eff[cur]) - cp.maxChange
			if avail > 0 && cp.eff[flr]*avail >= workW*(1-feasTol) {
				lvl = flr
			}
		}
	}
	if pol.tracer != nil || pol.hSlack != nil {
		pol.observePick(tmpl, ti, lft, now, g, lvl)
	}
	return lvl
}

// observePick emits the pickup's slack decision: the slack-sharing
// allocation beyond the task's minimum need, and — when speculation pushed
// the level above the greedy choice — a slack-steal event.
func (pol *policy) observePick(tmpl *sim.Template, ti int, lft, now float64, g, lvl int) {
	slack := lft - now - tmpl.WorkW[ti]/pol.plan.fmax
	if slack < 0 {
		slack = 0
	}
	if pol.hSlack != nil {
		pol.hSlack.Observe(slack)
	}
	if pol.tracer != nil {
		pol.tracer.Event(obs.Event{
			Kind: obs.EvSlackShare, Time: now,
			Proc: -1, Task: -1, Node: tmpl.Node[ti], Name: tmpl.Name[ti],
			Level: g, Prev: g, Value: slack,
		})
	}
	if lvl <= g {
		return
	}
	if pol.cSteal != nil {
		pol.cSteal.Inc()
	}
	if pol.tracer != nil {
		pol.tracer.Event(obs.Event{
			Kind: obs.EvSlackSteal, Time: now,
			Proc: -1, Task: -1, Node: tmpl.Node[ti], Name: tmpl.Name[ti],
			Level: lvl, Prev: g,
		})
	}
}

// gssPick is the greedy slack-sharing level choice with overhead
// accounting (§3.2 and [20]) on class cp's table, for a task of worst-case
// work workW and latest finish time lft: the task's allocation is
// everything up to its latest finish time; after paying the
// speed-computation overhead (and the change overhead if the level would
// change), the slowest level that still covers the worst-case work is
// selected — work retires at Speed·f, so the needed frequency divides
// through by the class speed before quantization. If no change can be
// afforded the processor keeps its current speed when that is fast enough,
// and falls back to maximum speed otherwise.
func (pol *policy) gssPick(workW, lft, now float64, cur int, cp *classPolicy) int {
	plat := cp.plat

	availNC := lft - now - pol.plan.Overheads.CompTime(cp.eff[cur])
	needNC := math.Inf(1)
	if availNC > 0 {
		needNC = workW / availNC
	}
	curOK := cp.eff[cur] >= needNC*(1-feasTol)

	availC := availNC - cp.maxChange
	lvlC := plat.MaxIndex()
	feasC := false
	if availC > 0 {
		need := workW / availC
		if cp.speed != 1 {
			need /= cp.speed // exact no-op at Speed 1, so skipped
		}
		lvlC = plat.QuantizeUp(need)
		feasC = cp.eff[lvlC]*availC >= workW*(1-feasTol)
	}

	if curOK {
		// Slow down only if a change is affordable and strictly saves.
		if feasC && lvlC < cur {
			return lvlC
		}
		return cur
	}
	// The current level is too slow: a change is mandatory; if even the
	// change-adjusted choice cannot make it, run flat out (best effort —
	// cannot occur when the off-line padding is in effect).
	return lvlC
}

// initialLevel is the level processors of class ci hold before the first
// task: the static level for SPM and CLV, f_max otherwise.
func (pol *policy) initialLevel(ci int) int {
	cp := &pol.cls[ci]
	switch pol.scheme {
	case SPM, CLV:
		return cp.fixed
	default:
		return cp.plat.MaxIndex()
	}
}

var _ sim.Policy = (*policy)(nil)

// SPMLevel returns the level SPM would use for the given deadline —
// exposed for tests and reporting. It is computed on class 0's table with
// the stretch rule of policy.init's SPM case; heterogeneous plans report
// class 0's level (every class stretches by the same fraction CT_worst/D
// of its own f_max).
func (p *Plan) SPMLevel(deadline float64) power.Level {
	plat := p.classes[0].plat
	return plat.Levels()[plat.QuantizeUp(plat.Max().Freq*p.CTWorst/deadline)]
}
