// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output, and prints every metric
// by name with its unit; the last line of standard output is the result:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	repro        the paper reproduction: all registered experiments at
//	             1000 runs/point, pass after pass
//	serve-warm   two closed-loop clients of single-run /v1/run requests
//	             that all hit the plan cache
//	serve-churn  two closed-loop clients over 512 random applications,
//	             four times the plan cache, so most requests compile and evict
//	serve-mc     closed loop, one client repeating Monte-Carlo /v1/run,
//	             /v1/compare and /v1/batch requests
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing. With --trace 1 it carries the per-layer metrics: the run
// measures half its time untraced and half traced, timing the calls into
// each layer's public functions from the benchmark's side, reads the
// server's /metrics counters, climbs the L0–L4 layer ladder, and writes
// its spans under .bench_build/spans/. The traced runs of serve-warm and
// serve-churn also drive the server open-loop, at 4000 and 1000 req/s, and
// search for the highest rate it sustains.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every untraced run reports, with
// their units; BENCHMARK.json lists the same names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"max_ops_per_s", "1/s"},
	{"sim_runs_per_s", "1/s"},
	{"heap_peak_mb", "MiB"},
}

type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
}

// rng returns the workload's input generator; one seed, one input set.
func (o options) rng() *rand.Rand { return rand.New(rand.NewPCG(o.seed, 0x5eed)) }

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	notes             []string // printed before the result line
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, err.Error())
	}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*outcome, error){
	"repro":       runRepro,
	"serve-warm":  runServe,
	"serve-churn": runServe,
	"serve-mc":    runServe,
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var seed uint64
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: repro, serve-warm, serve-churn or serve-mc")
	flag.Uint64Var(&seed, "seed", 2002, "seed of the workload's inputs")
	flag.IntVar(&seconds, "seconds", 10, "seconds one run measures")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run and its per-layer metrics")
	flag.Parse()
	fn, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload repro|serve-warm|serve-churn|serve-mc, --seconds ≥ 1, --trace 0|1")
		return 2
	}
	o.seed, o.window, o.trace = seed, time.Duration(seconds)*time.Second, trace == 1

	m := describeMachine()
	mj, _ := json.Marshal(m)
	fmt.Printf("machine %s\n", mj)
	out, err := fn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	res := result{Correct: out.failed == 0 && out.attempted > 0, Attempted: max(out.attempted, 1),
		Failed: out.failed, Metrics: map[string]metric{}}
	for _, w := range want {
		mt, ok := out.metrics[w.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", o.workload, w.name)
			return 1
		}
		res.Metrics[w.name] = mt
	}
	if len(out.metrics) != len(want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s measured %d metrics, BENCHMARK.json lists %d\n", o.workload, len(out.metrics), len(want))
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", p)
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, w := range want {
		fmt.Printf("%-32s %14.6g %s\n", w.name, res.Metrics[w.name].Value, w.unit)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(rj))
	return 0
}
