package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"andorsched/internal/power"
)

func exportEntries(t *testing.T) (*power.Platform, []GanttEntry) {
	t.Helper()
	p := testPlat()
	ov := power.Overheads{SpeedCompCycles: 10e6, SpeedChangeTime: 0.01}
	tasks := []*Task{
		{Name: "alpha", WorkW: 200e6, WorkA: 150e6, Order: 0, LFT: 10},
		{Name: "beta", WorkW: 300e6, WorkA: 200e6, Order: 1, LFT: 10},
	}
	res, err := Run(Config{
		Platform: p, Overheads: ov, Mode: ByOrder, Procs: 2, Policy: fixedPolicy(0),
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, _ := mustTemplate(t, tasks)
	return p, Entries(tmpl, res.Records)
}

func TestChromeTrace(t *testing.T) {
	p, entries := exportEntries(t)
	data, err := ChromeTrace(p, entries)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 2 task events + 2 overhead events (both tasks change speed from max
	// to level 0 and pay computation overhead).
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	names := map[string]int{}
	for _, e := range events {
		names[e["name"].(string)]++
		if e["ph"] != "X" {
			t.Errorf("event phase = %v", e["ph"])
		}
		if e["dur"].(float64) <= 0 {
			t.Error("non-positive duration")
		}
	}
	if names["alpha"] != 1 || names["beta"] != 1 || names["dvs-overhead"] != 2 {
		t.Errorf("event names = %v", names)
	}
}

func TestSVG(t *testing.T) {
	p, entries := exportEntries(t)
	svg := SVG(p, entries, 5.0)
	for _, want := range []string{
		"<svg", "</svg>", "P0", "P1", "alpha", "beta", "D=5000.00ms", "rect",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Overheads render as red slivers.
	if !strings.Contains(svg, "#d33") {
		t.Error("SVG missing overhead markers")
	}
}

func TestSVGEmpty(t *testing.T) {
	p, _ := exportEntries(t)
	svg := SVG(p, nil, 0)
	if !strings.Contains(svg, "empty schedule") {
		t.Error("empty SVG placeholder missing")
	}
}
