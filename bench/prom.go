package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSamples maps a Prometheus series, written as in the exposition
// text (`name{label="v"}`), to its value.
type promSamples map[string]float64

// parseProm reads the text exposition format ssspd's /metrics emits:
// comment lines, then one `series value` pair per line.
func parseProm(r io.Reader) (promSamples, error) {
	s := promSamples{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, '}') + 1
		if cut == 0 {
			cut = strings.IndexByte(line, ' ')
		}
		if cut <= 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[cut:]), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[line[:cut]] = v
	}
	return s, sc.Err()
}

// delta returns how much a series grew between two scrapes. It refuses
// a series that is absent from either.
func delta(before, after promSamples, series string) (float64, error) {
	b, okb := before[series]
	a, oka := after[series]
	if !okb || !oka {
		return 0, fmt.Errorf("series %s missing from /metrics", series)
	}
	return a - b, nil
}
