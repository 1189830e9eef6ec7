package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
)

// request is one HTTP request of a workload, serialized once up front so
// the sender's own cost per request is a single write.
type request struct {
	path string
	body []byte
	runs int // simulated executions the request asks for
	kind reqKind
	wire []byte // the full HTTP/1.1 request
}

type reqKind int

const (
	kindRun     reqKind = iota // /v1/run, runs=1: one JSON row
	kindStream                 // /v1/run, runs>1: NDJSON rows and a summary
	kindCompare                // /v1/compare: one JSON object
	kindBatch                  // /v1/batch: NDJSON item lines and a summary
)

func newRequest(path, body string, runs int, kind reqKind) request {
	r := request{path: path, body: []byte(body), runs: runs, kind: kind}
	r.wire = r.wireWithID(-1)
	return r
}

// wireWithID serializes the request; an id ≥ 0 is sent as X-Bench-Req so
// the traced run can pair the client's span with the handler's.
func (r request) wireWithID(id int64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n", r.path, len(r.body))
	if id >= 0 {
		b.WriteString("X-Bench-Req: " + strconv.FormatInt(id, 10) + "\r\n")
	}
	b.WriteString("\r\n")
	b.Write(r.body)
	return b.Bytes()
}

// conn is a keep-alive HTTP/1.1 client connection that writes prebuilt
// requests and reads each response body into a reused buffer.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// do sends wire and returns the status and body; the body is valid until
// the next call.
func (c *conn) do(wire []byte) (int, []byte, error) {
	if _, err := c.c.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

func (c *conn) close() { c.c.Close() }

// checkBody returns why a 200 response body to r is wrong, or nil. Every
// executed run must meet its deadline, every stream must end in its
// summary and carry no error line.
func checkBody(r request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", r.path, status, body)
	}
	if bytes.Contains(body, []byte(`"error"`)) {
		return fmt.Errorf("%s: error line: %.200s", r.path, body)
	}
	met := bytes.Count(body, []byte(`"met_deadline":true`))
	switch r.kind {
	case kindRun:
		if met != 1 {
			return fmt.Errorf("%s: row without met_deadline:true: %.200s", r.path, body)
		}
	case kindStream:
		last := lastLine(body)
		if met != r.runs || !bytes.Contains(last, []byte(`"summary":true`)) ||
			!bytes.Contains(last, []byte(`"deadline_misses":0,`)) ||
			!bytes.Contains(last, []byte(`"lst_violations":0,`)) {
			return fmt.Errorf("%s: %d of %d rows met the deadline, summary %.200s", r.path, met, r.runs, last)
		}
	case kindCompare:
		schemes := bytes.Count(body, []byte(`"scheme":`))
		if schemes == 0 || bytes.Count(body, []byte(`"deadline_misses":0`)) != schemes {
			return fmt.Errorf("%s: deadline misses in %.200s", r.path, body)
		}
	case kindBatch:
		last := lastLine(body)
		if !bytes.Contains(last, []byte(`"summary":true`)) || !bytes.Contains(last, []byte(`"errors":0`)) ||
			bytes.Contains(body, []byte(`"deadline_misses"`)) || bytes.Contains(body, []byte(`"lst_violations"`)) {
			return fmt.Errorf("%s: bad batch, summary %.200s", r.path, last)
		}
	}
	return nil
}

// lastLine returns the last non-empty line of an NDJSON body.
func lastLine(body []byte) []byte {
	body = bytes.TrimRight(body, "\n")
	return body[bytes.LastIndexByte(body, '\n')+1:]
}
