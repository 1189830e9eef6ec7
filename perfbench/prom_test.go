package main

import (
	"strings"
	"testing"
)

const promBefore = `# HELP serve_runs runs
# TYPE serve_runs counter
serve_runs 10
serve_phase_latency_seconds_bucket{phase="decode",le="0.0001"} 3
serve_phase_latency_seconds_bucket{phase="decode",le="+Inf"} 4
serve_phase_latency_seconds_sum{phase="decode"} 0.0002
serve_phase_latency_seconds_count{phase="decode"} 4
serve_http_latency_seconds_sum 0.5
serve_http_latency_seconds_count 5
`

const promAfter = `serve_runs 25 1700000000000
serve_phase_latency_seconds_bucket{phase="decode",le="0.0001"} 9
serve_phase_latency_seconds_bucket{phase="decode",le="+Inf"} 12
serve_phase_latency_seconds_sum{phase="decode"} 0.001
serve_phase_latency_seconds_count{phase="decode"} 12
serve_phase_latency_seconds_sum{phase="exec.mc"} 2
serve_phase_latency_seconds_count{phase="exec.mc"} 8
serve_http_latency_seconds_sum 1.5
serve_http_latency_seconds_count 9
`

func TestHistogramDeltas(t *testing.T) {
	b, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(b, a, "serve_runs"); d != 15 {
		t.Errorf("counter delta = %v, want 15", d)
	}
	if c, s := histDelta(b, a, "serve_phase_latency_seconds", `phase="decode"`); c != 8 || s < 0.00079 || s > 0.00081 {
		t.Errorf("decode delta = %v, %v; want 8, 0.0008", c, s)
	}
	if c, s := histDelta(b, a, "serve_phase_latency_seconds", `phase="exec.mc"`); c != 8 || s != 2 {
		t.Errorf("a series new in the second scrape: %v, %v; want 8, 2", c, s)
	}
	if c, s := histDelta(b, a, "serve_http_latency_seconds", ""); c != 4 || s != 1 {
		t.Errorf("unlabeled delta = %v, %v; want 4, 1", c, s)
	}
	if d := delta(b, a, `serve_phase_latency_seconds_bucket{phase="decode",le="+Inf"}`); d != 8 {
		t.Errorf("bucket delta = %v", d)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, in := range []string{"serve_runs\n", `x{a="b" 1` + "\n", "serve_runs one\n"} {
		if _, err := parseProm(strings.NewReader(in)); err == nil {
			t.Errorf("parseProm(%q) accepted", in)
		}
	}
}
