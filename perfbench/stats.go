package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// series collects one measured quantity (a latency in milliseconds, a
// byte count) from any number of goroutines.
type series struct {
	mu sync.Mutex
	v  []float64
}

func (s *series) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *series) addDur(d time.Duration) { s.add(ms(d)) }

func (s *series) reset() {
	s.mu.Lock()
	s.v = nil
	s.mu.Unlock()
}

// values returns a sorted copy of the samples.
func (s *series) values() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (0..100) of sorted values by
// linear interpolation between the two closest ranks, or 0 for no
// values.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) computes
// them (the default "exclusive" method), so repeat-mode spreads match
// an external check made with that function.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// interval is a closed time span [start, end] in any unit.
type interval struct{ start, end float64 }

// selfTime is a span's duration minus the part of it its children
// cover. Children are clipped to the parent and overlapping children
// count once, so concurrent children never drive self time negative.
func selfTime(parent interval, children []interval) float64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := math.Max(c.start, parent.start), math.Min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := 0.0
	var cur interval
	for i, c := range clipped {
		if i == 0 || c.start > cur.end {
			if i > 0 {
				covered += cur.end - cur.start
			}
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return (parent.end - parent.start) - covered
}
