package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"andorsched/internal/core"
)

// TestCompareRunsLimitOverflow: a frame count whose product with the
// scheme count overflows int is over the run limit, and is answered with
// an immediate 400 at every width rather than executed.
func TestCompareRunsLimitOverflow(t *testing.T) {
	s := newTestServer(t, Config{RequestTimeout: 2 * time.Second})
	for _, chunks := range []int{0, 1} {
		body := fmt.Sprintf(`{"workload":"atr","schemes":["GSS","AS","SS1","SS2"],"runs":4611686018427387904,"chunks":%d}`, chunks)
		t0 := time.Now()
		w := post(t, s, "/v1/compare", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("chunks=%d: status %d after %v, want 400: %s", chunks, w.Code, time.Since(t0), w.Body.String())
		}
		if took := time.Since(t0); took > time.Second {
			t.Errorf("chunks=%d: rejection took %v", chunks, took)
		}
	}
}

// assertNoPin is the shared-worker fairness check: on a 1-worker server,
// a single /v1/run sent while a long Monte-Carlo request is executing is
// answered within a block's time — not after the long request, as it
// would be if that request held the worker for its whole loop.
func assertNoPin(t *testing.T, path, long string) {
	t.Helper()
	s := newTestServer(t, Config{Workers: 1, QueueSize: 8, RequestTimeout: 2 * time.Minute})
	single := `{"workload":"atr","scheme":"GSS","seed":5}`
	if w := post(t, s, "/v1/run", single); w.Code != http.StatusOK { // warm the plan
		t.Fatalf("warmup status %d: %s", w.Code, w.Body.String())
	}
	waitSettled(t, s.pool)

	type result struct {
		code int
		took time.Duration
	}
	done := make(chan result, 1)
	t0 := time.Now()
	go func() {
		w := post(t, s, path, long)
		done <- result{w.Code, time.Since(t0)}
	}()
	for s.pool.InFlight() == 0 {
		if time.Since(t0) > 10*time.Second {
			t.Fatal("long request never reached the pool")
		}
		time.Sleep(50 * time.Microsecond)
	}
	t1 := time.Now()
	w := post(t, s, "/v1/run", single)
	tookRun := time.Since(t1)
	if w.Code != http.StatusOK {
		t.Fatalf("single run status %d: %s", w.Code, w.Body.String())
	}
	res := <-done
	if res.code != http.StatusOK {
		t.Fatalf("%s status %d", path, res.code)
	}
	if 2*tookRun > res.took {
		t.Errorf("single run took %v behind a %v %s request: it waited for the long request's worker",
			tookRun, res.took, path)
	}
}

func TestCompareDoesNotPinWorker(t *testing.T) {
	assertNoPin(t, "/v1/compare", `{"workload":"atr","schemes":["GSS","AS"],"runs":30000,"chunks":1,"seed":1}`)
}

func TestBatchDoesNotPinWorker(t *testing.T) {
	assertNoPin(t, "/v1/batch", `{"items":[{"workload":"atr","scheme":"GSS","runs":100000,"seed":1}]}`)
}

// TestBatchQueueFull429: a batch takes the executor's admission rule —
// when the pool's queue cannot take its first block it is answered at
// once with a 429 and an integer Retry-After, not parked until its
// deadline.
func TestBatchQueueFull429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueSize: 1, RequestTimeout: 2 * time.Second})
	if w := post(t, s, "/v1/run", `{"workload":"atr","scheme":"GSS"}`); w.Code != http.StatusOK { // warm the plan
		t.Fatalf("warmup status %d", w.Code)
	}
	waitSettled(t, s.pool)
	// Occupy the worker and the only queue slot.
	gate := make(chan struct{})
	pinned := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.pool.submit(context.Background(), &s.pool.shared, true, 1, func(context.Context, *Worker) {
				pinned <- struct{}{}
				<-gate
			})
		}()
	}
	defer func() { close(gate); wg.Wait() }()
	<-pinned
	waitQueued(t, s.pool, 1)

	t0 := time.Now()
	w := post(t, s, "/v1/batch", `{"items":[{"workload":"atr","scheme":"GSS","runs":3}]}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("batch on a full queue: status %d after %v, want 429: %s", w.Code, time.Since(t0), w.Body.String())
	}
	if secs, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want an integer number of seconds >= 1", w.Header().Get("Retry-After"))
	}
}

// TestIdleConnectionClosed: an idle keep-alive connection is closed by
// the server once it has been idle for the request timeout, instead of
// being held open forever.
func TestIdleConnectionClosed(t *testing.T) {
	s, base, errc := startE2E(t, Config{Workers: 1, RequestTimeout: 300 * time.Millisecond})
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	t0 := time.Now()
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle keep-alive connection: read returned %v after %v, want EOF (closed by the server)",
			err, time.Since(t0))
	}
	shutdownE2E(t, s, errc)
}

// TestBatchRunFailureIsItemLine: a run failing inside a block fails its
// item only — also an item spanning several blocks, whose later blocks
// still hold runs of it — and the items around it, sharing its blocks,
// still summarize exactly as /v1/run does.
func TestBatchRunFailureIsItemLine(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	plan, _, apiErr := s.planFor(context.Background(), &AppSpec{Workload: "atr"})
	if apiErr != nil {
		t.Fatal(apiErr.msg)
	}
	item := func(i, runs int, seed uint64, deadline float64) batchItem {
		return batchItem{plan: plan, runs: runs, seed: seed, res: BatchItemResult{Item: i},
			cfg: core.RunConfig{Scheme: core.GSS, Deadline: deadline}}
	}
	items := []batchItem{
		item(0, 300, 1, plan.CTWorst/0.5),
		item(1, 600, 2, -1), // every run fails validation
		item(2, 200, 3, plan.CTWorst/0.5),
	}
	x := newBatchExec(items)
	if err := s.pool.execBlocks(context.Background(), x.seq(2)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(items[1].res.Error, "non-positive deadline") {
		t.Errorf("failing item line %+v, want its run's error", items[1].res)
	}
	for _, i := range []int{0, 2} {
		w := post(t, s, "/v1/run", fmt.Sprintf(`{"workload":"atr","scheme":"GSS","load":0.5,"seed":%d,"runs":%d}`,
			items[i].seed, items[i].runs))
		lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
		var sum RunSummary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatal(err)
		}
		if want := itemResult(i, sum); !reflect.DeepEqual(items[i].res, want) {
			t.Errorf("item %d %+v, want its /v1/run summary %+v", i, items[i].res, want)
		}
	}
}
