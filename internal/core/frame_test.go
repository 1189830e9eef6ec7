package core

import (
	"fmt"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/sim"
	"andorsched/internal/workload"
)

// frameSchemes is every scheme with the clairvoyant bound in the middle of
// the list, so a frame replays schemes both before and after CLV's probe.
func frameSchemes() []Scheme {
	return []Scheme{SPM, GSS, SS1, SS2, CLV, AS, ASP, ORA, NPM}
}

// frameCase is one frame configuration for the differential checks.
type frameCase struct {
	name    string
	cfg     RunConfig // Sampler is filled in per frame
	biased  float64   // > 0 wraps the sampler in exectime.Biased
	schemes []Scheme
}

// eqFrameResults is eqRunResults plus the per-class energy breakdown.
func eqFrameResults(a, b *RunResult) string {
	if diff := eqRunResults(a, b); diff != "" {
		return diff
	}
	for _, f := range []struct {
		name string
		a, b []float64
	}{{"ClassGrossEnergy", a.ClassGrossEnergy, b.ClassGrossEnergy}, {"ClassIdleEnergy", a.ClassIdleEnergy, b.ClassIdleEnergy}} {
		if len(f.a) != len(f.b) {
			return fmt.Sprintf("%s length: %d vs %d", f.name, len(f.a), len(f.b))
		}
		for i := range f.a {
			if f.a[i] != f.b[i] {
				return fmt.Sprintf("%s[%d]: %v vs %v", f.name, i, f.a[i], f.b[i])
			}
		}
	}
	return ""
}

// checkFrame runs one frame of c on plan at seed through RunSchemesInto and
// compares NPM and every scheme, bit for bit, with a reseed and a fresh
// Plan.Run of that scheme alone — the loop the frame API replaces.
func checkFrame(plan *Plan, c frameCase, seed uint64, a *Arena, base *RunResult) error {
	src := exectime.NewSource(seed)
	var sampler exectime.TimeSampler = exectime.NewSampler(src)
	if c.biased > 0 {
		sampler = exectime.NewBiased(sampler, c.biased)
	}
	alone := func(s Scheme) (*RunResult, error) {
		src.Reseed(seed)
		cfg := c.cfg
		cfg.Scheme, cfg.Sampler = s, sampler
		return plan.Run(cfg)
	}
	cfg := c.cfg
	cfg.Sampler = sampler
	var got []*RunResult
	src.Reseed(seed)
	err := plan.RunSchemesInto(cfg, c.schemes, a, base, func(i int, res *RunResult) error {
		cp := *res
		cp.LevelTime = append([]float64(nil), res.LevelTime...)
		cp.FinalLevels = append([]int(nil), res.FinalLevels...)
		cp.Path = append([]andor.Choice(nil), res.Path...)
		cp.Trace = append([]sim.GanttEntry(nil), res.Trace...)
		cp.ClassGrossEnergy = append([]float64(nil), res.ClassGrossEnergy...)
		cp.ClassIdleEnergy = append([]float64(nil), res.ClassIdleEnergy...)
		got = append(got, &cp)
		return nil
	})
	if err != nil {
		return err
	}
	if len(got) != len(c.schemes) {
		return fmt.Errorf("each called %d times for %d schemes", len(got), len(c.schemes))
	}
	want, err := alone(NPM)
	if err != nil {
		return err
	}
	if diff := eqFrameResults(want, base); diff != "" {
		return fmt.Errorf("NPM base: %s", diff)
	}
	for i, s := range c.schemes {
		want, err := alone(s)
		if err != nil {
			return err
		}
		if diff := eqFrameResults(want, got[i]); diff != "" {
			return fmt.Errorf("%s (position %d): %s", s, i, diff)
		}
	}
	return nil
}

// framePlans are the plans the frame differential runs on: ATR on two
// identical Transmeta processors and on the big.LITTLE platform.
func framePlans(t *testing.T) map[string]*Plan {
	t.Helper()
	g := workload.ATR(workload.DefaultATRConfig())
	ov := power.DefaultOverheads()
	homo, err := NewPlan(g, 2, power.Transmeta5400(), ov)
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := NewHeteroPlan(g, power.BigLittle(), ov, sim.EnergyGreedy)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Plan{"2xtransmeta": homo, "biglittle": hetero}
}

// TestRunSchemesIntoMatchesReseededRuns is the frame API's differential
// test: one frame equals reseeding the sampler and running each scheme
// alone, across every RunResult field, for all nine schemes with CLV
// mid-list, the ORA estimator frozen and at its default weight, worst-case
// and forced-branch runs, the biased sampler, and both an identical-
// processor and a heterogeneous plan.
func TestRunSchemesIntoMatchesReseededRuns(t *testing.T) {
	for name, plan := range framePlans(t) {
		d := plan.CTWorst / 0.6
		cases := []frameCase{
			{name: "default", cfg: RunConfig{Deadline: d}},
			{name: "frozen-ora", cfg: RunConfig{Deadline: d, ORAWeight: -1}},
			{name: "ora-weight", cfg: RunConfig{Deadline: d, ORAWeight: 0.5}},
			{name: "worst-case", cfg: RunConfig{Deadline: d, WorstCase: true}},
			{name: "forced", cfg: RunConfig{Deadline: d, ForceBranches: []int{1, 0, 2}}},
			{name: "biased", cfg: RunConfig{Deadline: d}, biased: 0.4},
			{name: "trace", cfg: RunConfig{Deadline: plan.CTWorst, CollectTrace: true, Validate: true}},
		}
		a := NewArena()
		var base RunResult
		for _, c := range cases {
			c.schemes = frameSchemes()
			for seed := uint64(0); seed < 12; seed++ {
				if err := checkFrame(plan, c, seed, a, &base); err != nil {
					t.Fatalf("%s %s seed %d: %v", name, c.name, seed, err)
				}
			}
		}
	}
}

// TestRunSchemesIntoErrors: the frame validates like RunInto and returns
// the callback's error as is, ending the frame.
func TestRunSchemesIntoErrors(t *testing.T) {
	plan := framePlans(t)["2xtransmeta"]
	var base RunResult
	never := func(int, *RunResult) error { t.Fatal("each called"); return nil }
	if err := plan.RunSchemesInto(RunConfig{Deadline: plan.CTWorst / 2}, []Scheme{GSS}, nil, &base, never); err == nil {
		t.Error("missing sampler accepted")
	}
	if err := plan.RunSchemesInto(RunConfig{Deadline: plan.CTWorst / 2, WorstCase: true}, []Scheme{GSS}, nil, &base, never); err == nil {
		t.Error("infeasible deadline accepted")
	}
	stop := fmt.Errorf("stop")
	calls := 0
	err := plan.RunSchemesInto(RunConfig{Deadline: plan.CTWorst, WorstCase: true}, []Scheme{GSS, AS}, nil, &base,
		func(int, *RunResult) error { calls++; return stop })
	if err != stop || calls != 1 {
		t.Errorf("callback error: got %v after %d calls, want %v after 1", err, calls, stop)
	}
}

// FuzzRunSchemesDifferential fuzzes the frame contract on random AND/OR
// applications: any generator seed, processor count, platform, load,
// estimator weight, sampler and scheme order gives a frame bit-identical
// to reseeded single-scheme runs.
func FuzzRunSchemesDifferential(f *testing.F) {
	f.Add(uint64(1), 2, false, uint8(60), false, false, uint64(0))
	f.Add(uint64(7), 3, true, uint8(90), true, false, uint64(5))
	f.Add(uint64(42), 1, false, uint8(35), false, true, uint64(11))
	f.Add(uint64(99), 4, true, uint8(100), true, true, uint64(3))
	f.Fuzz(func(t *testing.T, seed uint64, m int, hetero bool, loadPct uint8, frozen, biased bool, perm uint64) {
		if m < 1 || m > 6 || loadPct < 10 || loadPct > 100 {
			t.Skip()
		}
		g := workload.Random(seed, cacheDifferentialOpts(int(seed%4)))
		ov := power.DefaultOverheads()
		var plan *Plan
		var err error
		if hetero {
			plan, err = NewHeteroPlan(g, power.BigLittle(), ov, sim.FastestFirst)
		} else {
			plan, err = NewPlan(g, m, power.IntelXScale(), ov)
		}
		if err != nil {
			t.Fatal(err)
		}
		// A seed-driven rotation of every scheme puts CLV anywhere.
		all := frameSchemes()
		schemes := make([]Scheme, len(all))
		for i := range all {
			schemes[i] = all[(i+int(perm%uint64(len(all))))%len(all)]
		}
		c := frameCase{
			name:    "fuzz",
			cfg:     RunConfig{Deadline: plan.CTWorst * 100 / float64(loadPct)},
			schemes: schemes[:1+int(perm/7%uint64(len(all)))],
		}
		if frozen {
			c.cfg.ORAWeight = -1
		}
		if biased {
			c.biased = 0.25 + float64(seed%8)/4
		}
		if err := checkFrame(plan, c, seed^perm, NewArena(), new(RunResult)); err != nil {
			t.Fatalf("seed %d m=%d hetero=%v: %v", seed, m, hetero, err)
		}
	})
}
