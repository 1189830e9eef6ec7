package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"andorsched/internal/core"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/power"
	"andorsched/internal/workload"
)

// testKey is a distinct plan-cache key per n.
func testKey(n int) cacheKey {
	var k cacheKey
	k.graph[0] = byte(n)
	k.graph[1] = byte(n >> 8)
	k.platform = "transmeta"
	k.procs = 2
	return k
}

// compilePlan returns a compile function for one small plan.
func compilePlan(t testing.TB) func() (*core.Plan, error) {
	g := workload.Synthetic()
	return func() (*core.Plan, error) {
		return core.NewPlan(g, 2, power.Transmeta5400(), power.DefaultOverheads())
	}
}

// TestSnapshotPublicationRace stress-tests the epoch-published shard
// snapshots under concurrent eviction: owners churn small shards (every
// insert evicts and republished) while cross-shard readers loop over the
// snapshots. Run under -race this proves the publication protocol; the
// explicit assertions pin that generations only move forward and a
// snapshot never yields a nil plan for a present key.
func TestSnapshotPublicationRace(t *testing.T) {
	p := NewPool(2, 16, 6) // 3 plans per shard: constant eviction
	defer p.Close()
	mk := compilePlan(t)

	const nKeys = 24
	keys := make([]cacheKey, nKeys)
	for i := range keys {
		keys[i] = testKey(i)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	lastGen := make([]atomic.Uint64, len(p.workers))
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				k := keys[rng.Intn(nKeys)]
				home := p.homeFor(k)
				if snap := p.workers[home].plans.snap.Load(); snap != nil {
					for sk, plan := range snap.plans {
						if plan == nil {
							t.Errorf("snapshot of worker %d holds nil plan for %v", home, sk)
							stop.Store(true)
							return
						}
					}
					for {
						g := lastGen[home].Load()
						if snap.gen > g {
							if !lastGen[home].CompareAndSwap(g, snap.gen) {
								continue
							}
						} else if snap.gen < g && snap.gen != 0 {
							// A reader may observe an older snapshot than a
							// faster reader did (Load races publish), but the
							// pointer itself must never be replaced with an
							// earlier generation; re-load to check.
							if cur := p.workers[home].plans.snap.Load(); cur != nil && cur.gen < g {
								t.Errorf("worker %d snapshot generation went backwards: %d after %d", home, cur.gen, g)
								stop.Store(true)
								return
							}
						}
						break
					}
				}
				if plan, _, ok := p.planFromSnapshot(k); ok && plan == nil {
					t.Errorf("planFromSnapshot returned ok with nil plan")
					stop.Store(true)
					return
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 1500; i++ {
		k := keys[rng.Intn(nKeys)]
		err := p.submit(context.Background(), p.ownerQueue(k), true, 1, func(ctx context.Context, wk *Worker) {
			if _, _, err := wk.OwnerPlan(k, func(*schedcache.Cache) (*core.Plan, error) { return mk() }); err != nil {
				t.Errorf("OwnerPlan: %v", err)
			}
		})
		if err != nil {
			t.Fatalf("owner submit: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()

	st := p.PlanCacheStats()
	if st.Evictions == 0 {
		t.Error("stress never evicted; shard capacity too large for the test to mean anything")
	}
	if st.Hits+st.Misses == 0 {
		t.Error("stress recorded no lookups")
	}
}

// TestPoolStatsConservationOnClose pins the graveyard bugfix: draining
// the pool must not lose per-worker cache counters — the merged totals
// after Close equal the totals before it, and hits+misses account for
// every owner lookup submitted. Block executions racing the drain must
// leave the queued-units gauge balanced too: every unit enqueued is
// eventually picked up (or never admitted), so the gauge returns to zero.
func TestPoolStatsConservationOnClose(t *testing.T) {
	p := NewPool(3, 16, 6)
	mk := compilePlan(t)
	const ops = 300
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < ops; i++ {
		k := testKey(rng.Intn(20))
		if err := p.submit(context.Background(), p.ownerQueue(k), true, 1, func(ctx context.Context, wk *Worker) {
			_, _, _ = wk.OwnerPlan(k, func(*schedcache.Cache) (*core.Plan, error) { return mk() })
		}); err != nil {
			t.Fatalf("owner submit: %v", err)
		}
	}
	// Race block executions against the drain below: their units ride
	// the same accounting the counters do.
	var fanWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		fanWG.Add(1)
		go func() {
			defer fanWG.Done()
			for i := 0; i < 50; i++ {
				_ = p.execBlocks(context.Background(), blockSeq{n: 3, width: 3, maxK: 1, cost: 7,
					run:   func(context.Context, *Worker, *mcBlock) {},
					drain: func(*mcBlock) error { return nil }})
			}
		}()
	}
	before := p.PlanCacheStats()
	if got := before.Hits + before.Misses; got != ops {
		t.Fatalf("hits+misses = %d before close, want %d", got, ops)
	}
	p.Close()
	after := p.PlanCacheStats()
	if after.Hits != before.Hits || after.Misses != before.Misses || after.Evictions != before.Evictions {
		t.Fatalf("counters changed across Close: before %+v, after %+v", before, after)
	}
	// Closing again must stay idempotent and keep the totals.
	p.Close()
	if again := p.PlanCacheStats(); again != after {
		t.Fatalf("counters changed across second Close: %+v vs %+v", again, after)
	}
	fanWG.Wait()
	if units := p.unitsQueued.Load(); units != 0 {
		t.Fatalf("queued-units gauge = %d after drain, want 0", units)
	}
}

// TestWarmRunNoServeMutexContention pins the shared-nothing path's "zero
// shared mutable state" claim with the runtime's own instrumentation:
// warmed /v1/run requests hammered concurrently must produce no contended
// Unlock called from serve-package code. (Tracing and admission are off,
// as on a tuned production path.) The loop calls the handler directly —
// no test helper, whose own locking would show up in the profile — and
// the load is high enough that one shared mutex on the warm path shows up
// in practically every run.
func TestWarmRunNoServeMutexContention(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueSize: 256, Trace: TraceConfig{Disabled: true}})
	body := `{"workload":"atr","procs":4,"scheme":"GSS","seed":7}`
	// Warm the shard (and every worker's arena) before profiling.
	for i := 0; i < 8; i++ {
		if w := post(t, s, "/v1/run", body); w.Code != http.StatusOK {
			t.Fatalf("warmup status %d: %s", w.Code, w.Body.String())
		}
	}
	h := s.Handler()
	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)

	var failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 128; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					failed.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d workers saw a non-200 answer", n)
	}

	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatalf("reading mutex profile: %v", err)
	}
	if rec := serveUnlockContention(buf.String()); rec != "" {
		t.Fatalf("contended Unlock called from internal/serve on the warmed run path:\n%s", rec)
	}
}

// serveUnlockContention scans a debug=1 mutex profile for a contended
// Unlock whose caller — the first frame below the sync Unlock frames — is
// non-test internal/serve code, and returns that record ("" if none).
// Contention the runtime or the standard library resolves on its own
// (sync.Pool's pinSlow, testing's bookkeeping) has a different caller and
// is ignored.
func serveUnlockContention(profile string) string {
	for _, rec := range strings.Split(profile, "\n\n") {
		var frames []string // "func file:line", innermost first
		for _, line := range strings.Split(rec, "\n") {
			f := strings.Fields(strings.TrimPrefix(line, "#"))
			if strings.HasPrefix(line, "#") && len(f) == 3 {
				frames = append(frames, f[1]+" "+f[2])
			}
		}
		i := 0
		for i < len(frames) && (strings.HasPrefix(frames[i], "sync.(*Mutex).Unlock") ||
			strings.HasPrefix(frames[i], "sync.(*RWMutex).Unlock") ||
			strings.HasPrefix(frames[i], "sync.(*RWMutex).RUnlock")) {
			i++
		}
		if i == 0 || i == len(frames) {
			continue // not an Unlock record, or no caller recorded
		}
		caller := frames[i]
		if strings.HasPrefix(caller, "andorsched/internal/serve.") && !strings.Contains(caller, "_test.go:") {
			return rec
		}
	}
	return ""
}

// TestHeteroRunClassEnergy pins the per-class energy breakdown on the
// wire: heterogeneous runs carry class slices whose totals reproduce the
// aggregate energies, and homogeneous responses don't grow new fields.
func TestHeteroRunClassEnergy(t *testing.T) {
	s := newTestServer(t, Config{})
	relClose := func(a, b float64) bool {
		scale := 1.0
		if m := a; m < 0 {
			m = -m
		}
		if ab, bb := a, b; true {
			if ab < 0 {
				ab = -ab
			}
			if bb < 0 {
				bb = -bb
			}
			if ab > scale {
				scale = ab
			}
			if bb > scale {
				scale = bb
			}
		}
		d := a - b
		if d < 0 {
			d = -d
		}
		return d <= 1e-9*scale
	}

	w := post(t, s, "/v1/run", `{"workload":"atr","hetero":"biglittle","scheme":"GSS","seed":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var row RunRow
	decodeBody(t, w, &row)
	if len(row.ClassGrossJ) != 2 || len(row.ClassIdleJ) != 2 {
		t.Fatalf("class slices (%d,%d), want (2,2): %s", len(row.ClassGrossJ), len(row.ClassIdleJ), w.Body.String())
	}
	var gross, idle float64
	for c := range row.ClassGrossJ {
		gross += row.ClassGrossJ[c]
		idle += row.ClassIdleJ[c]
	}
	if want := row.ActiveJ + row.OverheadJ; !relClose(gross, want) {
		t.Errorf("Σ class_gross_j = %g, want active+overhead = %g", gross, want)
	}
	if !relClose(idle, row.IdleJ) {
		t.Errorf("Σ class_idle_j = %g, want idle_j = %g", idle, row.IdleJ)
	}

	// Streaming summary carries the per-class means.
	w = post(t, s, "/v1/run", `{"workload":"atr","hetero":"biglittle","scheme":"GSS","seed":3,"runs":4}`)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", w.Code, w.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	var sum RunSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || !sum.Summary {
		t.Fatalf("last line is not a summary: %q (%v)", lines[len(lines)-1], err)
	}
	if len(sum.MeanClassGrossJ) != 2 || len(sum.MeanClassIdleJ) != 2 {
		t.Fatalf("summary class means (%d,%d), want (2,2)", len(sum.MeanClassGrossJ), len(sum.MeanClassIdleJ))
	}

	// Homogeneous responses stay free of the new fields.
	w = post(t, s, "/v1/run", `{"workload":"atr","procs":2,"scheme":"GSS","seed":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("homogeneous status %d: %s", w.Code, w.Body.String())
	}
	if strings.Contains(w.Body.String(), "class_gross_j") {
		t.Errorf("homogeneous run grew class fields: %s", w.Body.String())
	}
}
