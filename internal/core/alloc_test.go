package core

import (
	"testing"

	"andorsched/internal/exectime"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// TestRunIntoZeroAllocs asserts the tentpole property at this layer: once an
// Arena has been warmed over the seeds the measurement will replay, a
// RunInto of each dynamic scheme on the ATR workload performs zero
// steady-state heap allocations.
func TestRunIntoZeroAllocs(t *testing.T) {
	plan, err := NewPlan(workload.ATR(workload.DefaultATRConfig()), 2,
		power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	d := plan.CTWorst / 0.5
	src := exectime.NewSource(0)
	sampler := exectime.NewSampler(src)
	const cycle = 20 // seeds replayed during measurement, all seen in warm-up
	for _, s := range []Scheme{GSS, SS1, SS2, AS} {
		a := NewArena()
		out := new(RunResult)
		cfg := RunConfig{Scheme: s, Deadline: d, Sampler: sampler}
		for i := 0; i < cycle; i++ { // warm-up sizes every buffer
			src.Reseed(uint64(i))
			if err := plan.RunInto(cfg, a, out); err != nil {
				t.Fatal(err)
			}
		}
		var i uint64
		allocs := testing.AllocsPerRun(100, func() {
			src.Reseed(i % cycle)
			i++
			if err := plan.RunInto(cfg, a, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warmed arena RunInto allocates %.1f times per run, want 0", s, allocs)
		}
	}
}

// TestRunSchemesIntoZeroAllocs: a warmed frame — NPM plus every scheme,
// CLV's probe included, with a callback that reads each result — performs
// zero steady-state heap allocations, on an identical-processor and a
// heterogeneous plan.
func TestRunSchemesIntoZeroAllocs(t *testing.T) {
	for name, plan := range framePlans(t) {
		src := exectime.NewSource(0)
		cfg := RunConfig{Deadline: plan.CTWorst / 0.5, Sampler: exectime.NewSampler(src)}
		schemes := frameSchemes()
		a := NewArena()
		var base RunResult
		var energy float64
		frame := func(seed uint64) {
			src.Reseed(seed)
			if err := plan.RunSchemesInto(cfg, schemes, a, &base, func(_ int, res *RunResult) error {
				energy += res.Energy() / base.Energy()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		const cycle = 20 // seeds replayed during measurement, all seen in warm-up
		for i := uint64(0); i < cycle; i++ {
			frame(i)
		}
		var i uint64
		allocs := testing.AllocsPerRun(50, func() {
			frame(i % cycle)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: warmed RunSchemesInto allocates %.1f times per frame, want 0", name, allocs)
		}
	}
}

// TestRunStreamArenaAllocs asserts that a long stream through one arena
// allocates per stream, not per frame: the per-frame overhead of a warmed
// 400-frame stream is below one allocation per hundred frames.
func TestRunStreamArenaAllocs(t *testing.T) {
	plan, err := NewPlan(workload.ATR(workload.DefaultATRConfig()), 2,
		power.Transmeta5400(), power.DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	a := NewArena()
	src := exectime.NewSource(0)
	sampler := exectime.NewSampler(src)
	run := func(frames int) {
		src.Reseed(7)
		if _, err := plan.RunStreamArena(StreamConfig{
			Scheme: AS, Period: plan.CTWorst * 2, Frames: frames, Sampler: sampler,
			CarryLevels: true,
		}, a); err != nil {
			t.Fatal(err)
		}
	}
	run(400) // warm-up
	short := testing.AllocsPerRun(5, func() { run(100) })
	long := testing.AllocsPerRun(5, func() { run(400) })
	if long > short+1 { // per-stream constant, independent of frame count
		t.Errorf("allocations scale with frames: %.1f at 100 frames vs %.1f at 400", short, long)
	}
}
