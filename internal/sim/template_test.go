package sim

import (
	"strings"
	"testing"

	"andorsched/internal/power"
)

// TestTemplateSealChecks: Seal rejects inconsistent field lengths,
// malformed edge rows and out-of-range edges once, at build time, and the
// engine refuses a template that was never sealed.
func TestTemplateSealChecks(t *testing.T) {
	fresh := func() *Template {
		tmpl, _ := mustTemplate(t, layeredTasks(8))
		return tmpl
	}
	cases := []struct {
		name    string
		corrupt func(*Template)
		wantSub string
	}{
		{"short field", func(tm *Template) { tm.WorkW = tm.WorkW[:3] }, "disagree"},
		{"short rows", func(tm *Template) { tm.PredStart = tm.PredStart[:4] }, "disagree"},
		{"pred range", func(tm *Template) { tm.Preds[0] = 99 }, "out-of-range predecessor"},
		{"succ range", func(tm *Template) { tm.Succs[0] = -1 }, "out-of-range successor"},
		{"row order", func(tm *Template) { tm.SuccStart[2], tm.SuccStart[3] = 3, 2 }, "malformed"},
		{"row span", func(tm *Template) { tm.PredStart[8]-- }, "do not span"},
	}
	for _, c := range cases {
		tm := fresh()
		c.corrupt(tm)
		err := tm.Seal()
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: Seal = %v, want an error mentioning %q", c.name, err, c.wantSub)
		}
		if _, err := NewArena().RunTemplate(Config{Platform: testPlat(), Procs: 2}, tm, make([]float64, 8)); err == nil {
			t.Errorf("%s: engine ran a template that failed Seal", c.name)
		}
	}
	var unsealed Template
	if _, err := NewArena().RunTemplate(Config{Platform: testPlat(), Procs: 1}, &unsealed, nil); err == nil ||
		!strings.Contains(err.Error(), "not sealed") {
		t.Errorf("unsealed template: got %v", err)
	}
}

// TestTemplateOrderAndWork: a template whose order is not a permutation
// runs ByPriority but not ByOrder, and the per-run work vector is checked
// on every run.
func TestTemplateOrderAndWork(t *testing.T) {
	tasks := layeredTasks(8)
	tasks[5].Order = 4
	tmpl, workA := mustTemplate(t, tasks)
	cfg := Config{Platform: testPlat(), Procs: 2}
	a := NewArena()
	if _, err := a.RunTemplate(cfg, tmpl, workA); err != nil {
		t.Errorf("ByPriority run of an unordered template: %v", err)
	}
	cfg.Mode = ByOrder
	if _, err := a.RunTemplate(cfg, tmpl, workA); err == nil || !strings.Contains(err.Error(), "duplicate order") {
		t.Errorf("ByOrder run of an unordered template: got %v", err)
	}
	tmpl, workA = mustTemplate(t, layeredTasks(8))
	if _, err := a.RunTemplate(cfg, tmpl, workA[:7]); err == nil {
		t.Error("short work vector accepted")
	}
	over := append([]float64(nil), workA...)
	over[3] = 2 * tmpl.WorkW[3]
	if _, err := a.RunTemplate(cfg, tmpl, over); err == nil || !strings.Contains(err.Error(), "exceeds worst case") {
		t.Errorf("work above the worst case: got %v", err)
	}
}

// TestRunTemplateMatchesRun: one shared template replayed with varying
// work vectors is bit-identical to converting fresh tasks for every run,
// and a warmed arena allocates nothing per replay.
func TestRunTemplateMatchesRun(t *testing.T) {
	tasks := layeredTasks(64)
	tmpl, _ := mustTemplate(t, tasks)
	cfg := Config{Platform: power.Transmeta5400(), Mode: ByOrder, Procs: 4, Policy: fixedPolicy(2),
		Overheads: power.DefaultOverheads()}
	a := NewArena()
	work := make([]float64, len(tasks))
	for rep := 0; rep < 20; rep++ {
		for i, tk := range tasks {
			tk.WorkA = tk.WorkW * float64(1+(i*7+rep)%10) / 10
			work[i] = tk.WorkA
		}
		want, err := Run(cfg, tasks)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.RunTemplate(cfg, tmpl, work)
		if err != nil {
			t.Fatal(err)
		}
		assertResultsIdentical(t, want, got)
		if t.Failed() {
			t.Fatalf("replay %d diverged", rep)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := a.RunTemplate(cfg, tmpl, work); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed RunTemplate allocates %.1f times, want 0", allocs)
	}
}
