package serve

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateWire = flag.Bool("update", false, "rewrite golden files")

// wireGoldenRequests are the exchanges TestWireGolden pins: the plan
// summary, single-run and Monte-Carlo answers for every scheme, scheme
// comparisons at several frame counts and widths, and batches mixing
// seedless, seeded, failing and multi-block items — on an
// identical-processor platform and on a heterogeneous one.
func wireGoldenRequests() [][2]string {
	apps := []string{
		`"workload":"atr","platform":"transmeta","procs":2`,
		`"workload":"atr","hetero":"biglittle"`,
	}
	schemes := []string{"NPM", "SPM", "GSS", "SS1", "SS2", "AS", "ASP", "ORA", "CLV"}
	var reqs [][2]string
	for _, app := range apps {
		reqs = append(reqs, [2]string{"/v1/plan", "{" + app + "}"})
		for _, runs := range []int{1, 8} {
			for _, s := range schemes {
				reqs = append(reqs, [2]string{"/v1/run",
					fmt.Sprintf(`{%s,"scheme":%q,"load":0.6,"seed":11,"runs":%d}`, app, s, runs)})
			}
		}
		for _, set := range []string{`["all"]`, `["GSS","AS","ORA"]`} {
			for _, runs := range []int{1, 40, 300} {
				for _, chunks := range []int{0, 1, 5} {
					reqs = append(reqs, [2]string{"/v1/compare",
						fmt.Sprintf(`{%s,"schemes":%s,"load":0.6,"seed":5,"runs":%d,"chunks":%d}`, app, set, runs, chunks)})
				}
			}
		}
		reqs = append(reqs, [2]string{"/v1/batch", fmt.Sprintf(`{"items":[`+
			`{%[1]s,"scheme":"GSS","runs":3},`+
			`{%[1]s,"scheme":"AS","load":0.6,"runs":5,"seed":7},`+
			`{%[1]s,"scheme":"BOGUS","runs":2},`+
			`{"workload":"atr","hetero":"biglittle","scheme":"ORA","runs":4,"seed":9},`+
			`{%[1]s,"scheme":"SS2","load":0.6,"runs":600,"seed":11},`+
			`{%[1]s,"scheme":"CLV"}]}`, app)})
	}
	return reqs
}

// TestWireGolden pins the service's answers byte for byte: status line and
// body of each exchange, in order, against testdata/wire_golden.txt. Any
// change to the engine, the schemes, the plan compiler or the response
// encoding shows up here; regenerate deliberately with
//
//	go test ./internal/serve -run TestWireGolden -update
func TestWireGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	var got bytes.Buffer
	for _, r := range wireGoldenRequests() {
		w := post(t, s, r[0], r[1])
		fmt.Fprintf(&got, "POST %s %s\n%d\n%s", r[0], r[1], w.Code, w.Body.Bytes())
		if !bytes.HasSuffix(w.Body.Bytes(), []byte("\n")) {
			got.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "wire_golden.txt")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("wire output diverged from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("wire output diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
