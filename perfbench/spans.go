package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// span is one traced call into a layer, recorded by the benchmark around
// the layer's public entry point. Times are nanoseconds since the run's
// epoch; Parent is 0 for a root span; spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how the untraced runs call the same code.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// Request spans take their ids from the request id, so the handler's span
// can name the client's as its parent before the client's is recorded;
// other spans are numbered from autoIDBase up.
const autoIDBase = 1 << 40

func clientSpanID(req int64) int64  { return 2*req + 1 }
func handlerSpanID(req int64) int64 { return 2*req + 2 }

// add records a span and returns its id; id 0 assigns the next free one.
func (l *spanLog) add(id int64, name string, parent, req int64, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	if id == 0 {
		id = l.newID()
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))})
	l.mu.Unlock()
	return id
}

// newID reserves a span id for a span recorded later, so its children
// can name it as their parent first.
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return autoIDBase + l.next
}

// byName returns the recorded spans called name.
func (l *spanLog) byName(name string) []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// wrap times the server's root handler; the request id comes from the
// X-Bench-Req header the traced client sends.
func (l *spanLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		if req, err := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64); err == nil {
			l.add(handlerSpanID(req), "serve.handler", clientSpanID(req), req, t0, t1)
		}
	})
}

// write stores the spans as JSON lines under dir.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
