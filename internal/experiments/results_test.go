package experiments

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// Parameters the committed results/fig<ID>.csv files were generated with
// (cmd/experiments -runs 1000 -seed 2002).
const (
	resultsDir  = "../../results"
	resultsRuns = 1000
	resultsSeed = 2002
)

// TestCommittedResults regenerates every experiment that has a committed
// results/fig<ID>.csv and compares it byte for byte: the full-size
// reproduction (1000 runs per point) is a golden of the whole stack, from
// the workloads and the RNG through the off-line plans to every scheme's
// on-line arithmetic. Regenerate deliberately with
//
//	go run ./cmd/experiments -runs 1000 -seed 2002 -out results
func TestCommittedResults(t *testing.T) {
	found := 0
	for _, e := range All() {
		path := filepath.Join(resultsDir, "fig"+e.ID+".csv")
		want, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		found++
		se, err := e.Run(resultsRuns, resultsSeed)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if got := se.CSV(); got != string(want) {
			t.Errorf("%s diverged from %s.\ngot:\n%s\nwant:\n%s", e.ID, path, got, want)
		}
	}
	if found != 14 {
		t.Errorf("found %d committed results under %s, want 14", found, resultsDir)
	}
}
