package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"andorsched/internal/serve"
)

// server is the service under test: serve.New with the zero Config, which
// is what andord runs with default flags, on a loopback listener.
type server struct {
	s    *serve.Server
	addr string
	hs   *http.Server // the traced run's server, whose handler is timed
	done chan error
}

// startServer serves like andord does (Server.Serve); with spans, through
// an http.Server of the same settings whose root handler is timed.
func startServer(spans *spanLog) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv := &server{s: serve.New(serve.Config{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	if spans == nil {
		go func() { sv.done <- sv.s.Serve(ln) }()
	} else {
		sv.hs = &http.Server{Handler: spans.wrap(sv.s.Handler()), ReadHeaderTimeout: 10 * time.Second}
		go func() { sv.done <- sv.hs.Serve(ln) }()
	}
	return sv, nil
}

// stop drains the server and waits for its serve goroutine to end.
func (sv *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var err error
	if sv.hs != nil {
		err = sv.hs.Shutdown(ctx)
	}
	err = errors.Join(err, sv.s.Shutdown(ctx))
	if e := <-sv.done; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	return err
}

func dialN(addr string, n int) ([]*conn, error) {
	cs := make([]*conn, 0, n)
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// closedLoop sends reqs[0..n) round-robin over the connections, each
// connection waiting for its previous answer, and checks every answer.
func closedLoop(cs []*conn, reqs []request, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for k := range cs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += len(cs) {
				r := reqs[i%len(reqs)]
				status, body, err := cs[k].do(r.wire)
				if err == nil {
					err = checkBody(r, status, body)
				}
				if err != nil {
					errs[k] = err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// answered is a request and the digest of the bytes the server answered
// it with over HTTP, kept to be compared with the same request answered
// in-process.
type answered struct {
	req request
	sum [sha256.Size]byte
}

// recorder is a reusable in-process ResponseWriter.
type recorder struct {
	hdr    http.Header
	body   bytes.Buffer
	status int
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header, 4)} }

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(c int) {
	if r.status == 0 {
		r.status = c
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}
func (r *recorder) Flush() {}

func (r *recorder) reset() {
	r.body.Reset()
	r.status = 0
	clear(r.hdr)
}

// replay answers each kept request in-process through the server's
// handler and returns one error per answer whose bytes differ.
func replay(s *serve.Server, kept []answered) []error {
	var errs []error
	rec := newRecorder()
	for _, a := range kept {
		rec.reset()
		req := httptest.NewRequest(http.MethodPost, a.req.path, bytes.NewReader(a.req.body))
		s.Handler().ServeHTTP(rec, req)
		if rec.status != http.StatusOK || sha256.Sum256(rec.body.Bytes()) != a.sum {
			errs = append(errs, fmt.Errorf("%s %.120s: in-process answer (status %d) differs from the HTTP answer",
				a.req.path, a.req.body, rec.status))
		}
	}
	return errs
}
