package serve

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"andorsched/internal/andor"
	"andorsched/internal/workload"
)

// TestHTTPSingleCompile pins duplicate-compile suppression through the
// HTTP layer: concurrent identical /v1/plan requests produce one cache
// miss (one core.NewPlan) and n-1 hits.
func TestHTTPSingleCompile(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueSize: 64})
	const n = 16
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, s, "/v1/plan", `{"workload":"atr","procs":4}`)
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	// Shard counters merge into the registry on the read paths; refresh
	// like a scrape would before asserting on the snapshot.
	s.refreshStats()
	snap := s.Metrics().Snapshot()
	misses, _ := snap.Counter(MetricCacheMisses)
	hits, _ := snap.Counter(MetricCacheHits)
	if misses != 1 {
		t.Errorf("cache misses %d, want exactly 1 (duplicate-compile suppression)", misses)
	}
	if hits != n-1 {
		t.Errorf("cache hits %d, want %d", hits, n-1)
	}
}

// TestCacheKeyDistinguishesConfigs ensures the key covers everything the
// off-line phase depends on.
func TestCacheKeyDistinguishesConfigs(t *testing.T) {
	s := newTestServer(t, Config{})
	bodies := []string{
		`{"workload":"synthetic","procs":2}`,
		`{"workload":"synthetic","procs":4}`,
		`{"workload":"synthetic","procs":2,"platform":"xscale"}`,
		`{"workload":"synthetic","procs":2,"overheads":{"speed_comp_cycles":9000,"speed_change_us":30,"volt_slew_us_per_volt":100}}`,
		`{"workload":"atr","procs":2}`,
	}
	for i, body := range bodies {
		w := post(t, s, "/v1/plan", body)
		if w.Code != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	s.refreshStats()
	if misses, _ := s.Metrics().Snapshot().Counter(MetricCacheMisses); misses != int64(len(bodies)) {
		t.Errorf("%d distinct configurations produced %d misses", len(bodies), misses)
	}
	// Equivalent encodings collapse: the same graph as text hits the
	// workload's entry.
	g := workload.Synthetic()
	w := post(t, s, "/v1/plan", fmt.Sprintf(`{"text":%q,"procs":2}`, andor.FormatText(g)))
	if w.Code != http.StatusOK {
		t.Fatalf("text form: status %d: %s", w.Code, w.Body.String())
	}
	var resp PlanResponse
	decodeBody(t, w, &resp)
	if !resp.Cached {
		t.Error("text rendering of a cached workload missed the cache")
	}
}
