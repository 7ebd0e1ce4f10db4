package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// scrape is one parsed /metrics exposition: every sample keyed by its
// family-plus-labels series name exactly as the text format spells it.
type scrape map[string]float64

// parseScrape reads the Prometheus text exposition format. Comment and
// blank lines are skipped; a sample line is `series value`.
func parseScrape(body string) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family whose labels contain all of the
// given `key="value"` pairs.
func (s scrape) sum(family string, labels ...string) float64 {
	var total float64
	for series, v := range s {
		name, lbl := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, lbl = series[:i], series[i:]
		}
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// labelValues lists the distinct values of one label across a family.
func (s scrape) labelValues(family, label string) []string {
	seen := map[string]bool{}
	var out []string
	prefix := family + "{"
	key := label + `="`
	for series := range s {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		i := strings.Index(series, key)
		if i < 0 {
			continue
		}
		rest := series[i+len(key):]
		v := rest[:strings.IndexByte(rest, '"')]
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// diff is the counter movement between two scrapes of one process.
func (s scrape) diff(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}
