package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"andorsched/internal/core"
	"andorsched/internal/experiments"
)

const (
	reproRuns      = 1000 // runs per data point, as in the paper
	reproWarmRuns  = 20   // runs per point of the set-up pass
	referenceSeed  = 2002 // the seed results/*.csv were generated with
	referenceDir   = "results"
	experimentSpan = "experiments.run"
)

// group names the per-layer bucket of an experiment.
func group(e experiments.Experiment, figures map[string]bool) string {
	switch {
	case figures[e.ID]:
		return "figures"
	case strings.HasPrefix(e.ID, "hetero-"):
		return "hetero"
	}
	return "ablations"
}

// simRuns counts the simulated executions behind a series: every point
// runs every scheme and the NPM baseline runs times.
func simRuns(se *experiments.Series, runs int) int {
	return len(se.Points) * (len(se.Schemes) + 1) * runs
}

// reproPass is one timed pass over all experiments.
type reproPass struct {
	wall    time.Duration
	opMs    []float64          // each Experiment.Run, in ms
	busy    map[string]float64 // seconds per group
	simRuns int
}

// reproSetup is the harness's set-up: a fresh process-wide schedule cache,
// the experiment registry, and a small-run pass that compiles every plan.
func reproSetup(seed uint64) ([]experiments.Experiment, error) {
	core.SetScheduleCacheCapacity(core.DefaultScheduleCacheCapacity)
	exps := experiments.All()
	for _, e := range exps {
		if _, err := e.Run(reproWarmRuns, seed); err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return exps, nil
}

// reproPasses runs whole passes until window has elapsed. Every pass must
// produce the same bytes as the first; a pass whose experiment errs (the
// harness errs on any deadline miss or LST violation) or differs counts a
// failed operation.
func reproPasses(exps []experiments.Experiment, seed uint64, window time.Duration,
	out *outcome, spans *spanLog, first map[string][sha256.Size]byte) []reproPass {
	figures := map[string]bool{}
	for _, e := range experiments.Figures() {
		figures[e.ID] = true
	}
	var passes []reproPass
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < window {
		p := reproPass{busy: map[string]float64{}}
		p0 := time.Now()
		passID := spans.newID()
		for _, e := range exps {
			t0 := time.Now()
			se, err := e.Run(reproRuns, seed)
			t1 := time.Now()
			spans.add(0, experimentSpan+":"+e.ID, passID, int64(len(passes)), t0, t1)
			out.attempted++
			if err != nil {
				out.fail(fmt.Errorf("%s: %w", e.ID, err))
				continue
			}
			p.opMs = append(p.opMs, float64(t1.Sub(t0))/1e6)
			p.busy[group(e, figures)] += t1.Sub(t0).Seconds()
			p.simRuns += simRuns(se, reproRuns)
			sum := sha256.Sum256([]byte(se.CSV()))
			if want, ok := first[e.ID]; !ok {
				first[e.ID] = sum
			} else if sum != want {
				out.fail(fmt.Errorf("%s: pass %d differs from the first", e.ID, len(passes)))
			}
		}
		p.wall = time.Since(p0)
		spans.add(passID, "experiments.pass", 0, int64(len(passes)), p0, p0.Add(p.wall))
		passes = append(passes, p)
	}
	return passes
}

// checkReference reruns, at the reference seed, every experiment with a
// committed results/fig<ID>.csv and compares the bytes.
func checkReference(exps []experiments.Experiment, out *outcome) error {
	found := 0
	for _, e := range exps {
		want, err := os.ReadFile(filepath.Join(referenceDir, "fig"+e.ID+".csv"))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			return err
		}
		found++
		out.attempted++
		se, err := e.Run(reproRuns, referenceSeed)
		if err != nil {
			out.fail(fmt.Errorf("%s at seed %d: %w", e.ID, referenceSeed, err))
		} else if se.CSV() != string(want) {
			out.fail(fmt.Errorf("%s at seed %d differs from %s", e.ID, referenceSeed,
				filepath.Join(referenceDir, "fig"+e.ID+".csv")))
		}
	}
	if found == 0 {
		return fmt.Errorf("no reference results under %s/", referenceDir)
	}
	out.note("reference check: %d experiments against %s/ at seed %d", found, referenceDir, referenceSeed)
	return nil
}

func runRepro(o options) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var exps []experiments.Experiment
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		var err error
		if exps, err = reproSetup(o.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if o.trace {
		return reproLayers(o, exps, out)
	}
	first := map[string][sha256.Size]byte{}

	rt0 := snapRuntime()
	hp := startHeapPeak()
	t0 := time.Now()
	passes := reproPasses(exps, o.seed, o.window, out, nil, first)
	elapsed := time.Since(t0).Seconds()
	heap := hp.done()
	rt1 := snapRuntime()
	if err := checkReference(exps, out); err != nil {
		return nil, err
	}

	var ops, walls []float64
	sims := 0
	for _, p := range passes {
		ops = append(ops, p.opMs...)
		walls = append(walls, p.wall.Seconds())
		sims += p.simRuns
	}
	lat := summarize(ops)
	out.set("setup_s", median(setups), "s")
	out.set("p50_ms", lat.P50, "ms")
	out.set("tail_ms", lat.Tail, "ms")
	out.set("max_ops_per_s", float64(len(ops))/elapsed, "1/s")
	out.set("sim_runs_per_s", float64(sims)/elapsed, "1/s")
	out.set("heap_peak_mb", heap, "MiB")
	out.note("repro: %d passes, repro_s median %.4f s per pass; %d Experiment.Run calls, tail at p%g; %.0f ms CPU per pass",
		len(passes), median(walls), lat.N, lat.TailP, (rt1.cpu-rt0.cpu).Seconds()*1e3/float64(len(passes)))
	return out, nil
}

// reproLayers is the traced run of repro: half the time untraced, half
// with a span around every Experiment.Run, then the ladder.
func reproLayers(o options, exps []experiments.Experiment, out *outcome) (*outcome, error) {
	zeroLayers(out)
	first := map[string][sha256.Size]byte{}
	plain := reproPasses(exps, o.seed, o.window/2, out, nil, first)
	spans := newSpanLog()
	sc0, rt0 := core.ScheduleCacheStats(), snapRuntime()
	traced := reproPasses(exps, o.seed, o.window/2, out, spans, first)
	sc1, rt1 := core.ScheduleCacheStats(), snapRuntime()

	wall := func(ps []reproPass) float64 {
		var ws []float64
		for _, p := range ps {
			ws = append(ws, p.wall.Seconds())
		}
		return median(ws)
	}
	out.set("trace.overhead_pct", 100*ratio(wall(traced)-wall(plain), wall(plain)), "%")
	ops := 0
	for _, g := range []string{"figures", "ablations", "hetero"} {
		var busy []float64
		for _, p := range traced {
			busy = append(busy, p.busy[g])
		}
		out.set("experiments.busy_s."+g, median(busy), "s")
	}
	for _, p := range traced {
		ops += len(p.opMs)
	}
	hits, misses := float64(sc1.Hits-sc0.Hits), float64(sc1.Misses-sc0.Misses)
	out.set("core.schedcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	setRuntimeLayers(out, rt0, rt1, ops)
	if err := measureLayers(out, spans); err != nil {
		return nil, err
	}
	return out, writeSpans(out, spans, o)
}
