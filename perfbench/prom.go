package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample maps each series of a Prometheus text exposition, written
// as name{labels} exactly as exposed, to its value.
type promSample map[string]float64

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		end := strings.IndexByte(line, ' ')
		if i := strings.IndexByte(line, '{'); i >= 0 && i < end {
			j := strings.IndexByte(line, '}')
			if j < 0 {
				return nil, fmt.Errorf("prometheus: unterminated labels: %q", line)
			}
			end = j + 1
		}
		if end <= 0 || end >= len(line) {
			return nil, fmt.Errorf("prometheus: no value: %q", line)
		}
		fields := strings.Fields(line[end:])
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus: %q: %w", line, err)
		}
		out[line[:end]] = v
	}
	return out, sc.Err()
}

// scrape fetches GET /metrics from the server at addr.
func scrape(addr string) (promSample, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// delta is after minus before for one series (0 where absent).
func delta(before, after promSample, series string) float64 {
	return after[series] - before[series]
}

// histDelta returns the observation count and sum that a histogram series
// gained between two scrapes. labels is the label set without le, as in
// `phase="decode"`, or "" for an unlabeled histogram.
func histDelta(before, after promSample, family, labels string) (count, sum float64) {
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	return delta(before, after, family+"_count"+suffix), delta(before, after, family+"_sum"+suffix)
}
