package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fuzzStatuses are the statuses the decode path may legitimately answer.
var fuzzStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusTooManyRequests:       true,
	http.StatusServiceUnavailable:    true,
}

// FuzzRunEndpoint drives arbitrary bytes through the real HTTP decode path
// of POST /v1/run — middleware, size limit, JSON decode, graph parsing and
// validation — and checks the server never panics and never answers
// outside its documented status set. The corpus seeds every .andor
// workload shipped in the repo (wrapped as request bodies) plus malformed,
// truncated and oversized inputs.
func FuzzRunEndpoint(f *testing.F) {
	// One server for the whole fuzz run; runs are capped tiny so even a
	// "valid" fuzz input finishes fast.
	s := New(Config{
		Workers:        2,
		QueueSize:      8,
		MaxBodyBytes:   1 << 18,
		MaxRuns:        4,
		RequestTimeout: 5 * time.Second,
	})
	defer s.Close()

	files, err := filepath.Glob(filepath.Join("..", "..", "workloads", "*.andor"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no .andor corpus files found")
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{"text": string(src), "runs": 1})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		// Truncated versions of a valid body exercise every partial-JSON
		// prefix class.
		f.Add(body[:len(body)/2])
		f.Add(body[:len(body)-1])
	}
	f.Add([]byte(`{"workload":"atr","runs":2}`))
	f.Add([]byte(`{"graph":{"name":"g","nodes":[{"name":"a","kind":"compute","wcet":1,"acet":0.5}],"edges":[]}}`))
	f.Add([]byte(`{"text":"task A 1ms 1ms\ntask B 2ms"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":"atr"} {"workload":"atr"}`))
	f.Add([]byte(`{"text":"` + strings.Repeat("task X 1ms 1ms\\n", 64) + `"}`))
	f.Add([]byte(`{"deadline":-1e308,"load":1e-300,"workload":"atr"}`))
	f.Add([]byte(`[[[[[[[[[[`))

	panicsBefore, _ := s.Metrics().Snapshot().Counter(MetricPanics)
	if panicsBefore != 0 {
		f.Fatal("panic counter dirty before fuzzing")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(string(data)))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		// The middleware converts panics into 500s and counts them; a
		// recovered panic is still a bug the fuzzer must surface.
		if n, _ := s.Metrics().Snapshot().Counter(MetricPanics); n != 0 {
			t.Fatalf("handler panicked on %d-byte input %q", len(data), truncate(data))
		}
		if !fuzzStatuses[w.Code] {
			t.Fatalf("status %d on input %q; body %s", w.Code, truncate(data), w.Body.String())
		}
		// Error responses must carry a JSON error message; 200s must decode
		// as a run row or stream.
		if w.Code != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d with non-JSON error body %q", w.Code, w.Body.String())
			}
			return
		}
		first := w.Body.Bytes()
		if idx := strings.IndexByte(w.Body.String(), '\n'); idx >= 0 {
			first = first[:idx]
		}
		var row RunRow
		if err := json.Unmarshal(first, &row); err != nil {
			t.Fatalf("200 with undecodable first row %q: %v", truncate(first), err)
		}
	})
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return fmt.Sprintf("%s... (%d bytes)", b[:200], len(b))
	}
	return string(b)
}

// FuzzCompareEndpoint drives arbitrary bytes through the full /v1/compare
// path — middleware, size limit, JSON decode, scheme and run-limit
// validation, admission, block execution and encoding — and checks the
// server never panics and never answers outside its documented status
// set. The corpus includes a frame count whose product with the scheme
// count overflows int.
func FuzzCompareEndpoint(f *testing.F) {
	s := New(Config{
		Workers:        2,
		QueueSize:      8,
		MaxBodyBytes:   1 << 18,
		MaxRuns:        40,
		RequestTimeout: 5 * time.Second,
	})
	defer s.Close()

	f.Add([]byte(`{"workload":"atr","schemes":["GSS","AS","SS1","SS2"],"runs":4611686018427387904}`))
	f.Add([]byte(`{"workload":"atr","schemes":["GSS","AS","SS1","SS2"],"runs":4611686018427387904,"chunks":1}`))
	f.Add([]byte(`{"workload":"atr","schemes":["all"],"runs":4}`))
	f.Add([]byte(`{"workload":"atr","schemes":["GSS","ORA"],"runs":20,"chunks":3,"seed":9}`))
	f.Add([]byte(`{"workload":"atr","hetero":"biglittle","schemes":["AS"],"runs":5,"load":0.7}`))
	f.Add([]byte(`{"workload":"atr","schemes":["bogus"]}`))
	f.Add([]byte(`{"workload":"atr","schemes":[],"runs":-1}`))
	f.Add([]byte(`{"workload":"atr","runs":3,"chunks":65}`))
	f.Add([]byte(`{"workload":"atr","runs":2,"deadline":1e-9}`))
	f.Add([]byte(`{"workload":"atr"} {}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/compare", strings.NewReader(string(data)))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if n, _ := s.Metrics().Snapshot().Counter(MetricPanics); n != 0 {
			t.Fatalf("handler panicked on %d-byte input %q", len(data), truncate(data))
		}
		if !fuzzStatuses[w.Code] {
			t.Fatalf("status %d on input %q; body %s", w.Code, truncate(data), w.Body.String())
		}
		if w.Code != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d with non-JSON error body %q", w.Code, w.Body.String())
			}
			return
		}
		var resp CompareResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || len(resp.Schemes) == 0 {
			t.Fatalf("200 with undecodable or empty comparison %q: %v", truncate(w.Body.Bytes()), err)
		}
	})
}
