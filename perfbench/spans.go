package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alvc/alvc/internal/trace"
)

// span is one timed interval of the traced run. The benchmark records
// client and handler spans itself (Source "bench"); the program's own
// HTTP, provision, stage, repair and optimizer spans are copied from
// its trace store (Source "program"). Spans of one request share Trace.
type span struct {
	Trace  string    `json:"trace"`
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent"`
	Name   string    `json:"name"`
	Source string    `json:"source"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// spanLog keeps the benchmark's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	next  atomic.Uint64
}

// benchSpanBase keeps benchmark span IDs clear of the program's, which
// count up from 1.
const benchSpanBase = 1 << 62

func newSpanLog() *spanLog {
	l := &spanLog{}
	l.next.Store(benchSpanBase)
	return l
}

func (l *spanLog) nextID() uint64 { return l.next.Add(1) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// programSpanName maps a program span to the name its self time is
// reported under: stage spans by stage, HTTP spans by route, the rest
// by their own name with optimizer task kinds folded together.
func programSpanName(s trace.Span) string {
	switch {
	case s.Kind == trace.KindStage:
		return "stage." + s.Name
	case s.Kind == trace.KindHTTP:
		method, path, _ := strings.Cut(s.Name, " ")
		return "http." + routeOf(method, path)
	case s.Kind == trace.KindOptimizer:
		return "optimizer"
	}
	return s.Name
}

// collect appends every span retained by the program's trace store.
// Each program HTTP span is a root in the program's view; it is hung
// under the benchmark's handler span of the same trace.
func (l *spanLog) collect(store *trace.Store) (dropped int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	handlerOf := make(map[string]uint64)
	for _, s := range l.spans {
		if strings.HasPrefix(s.Name, "handler.") {
			handlerOf[s.Trace] = s.ID
		}
	}
	for _, sum := range store.Traces(trace.Query{Limit: math.MaxInt32}) {
		spans, d, _ := store.Trace(sum.ID)
		dropped += d
		for _, s := range spans {
			parent := uint64(s.Parent)
			if parent == 0 && s.Kind == trace.KindHTTP {
				parent = handlerOf[s.TraceID]
			}
			l.spans = append(l.spans, span{Trace: s.TraceID, ID: uint64(s.SpanID), Parent: parent,
				Name: programSpanName(s), Source: "program", Start: s.Start, End: s.End})
		}
	}
	return dropped
}

// selfTimes returns every span's self time in milliseconds, grouped by
// span name.
func (l *spanLog) selfTimes() map[string][]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	type key struct {
		trace string
		id    uint64
	}
	children := make(map[key][]interval)
	at := func(t time.Time) float64 { return float64(t.UnixNano()) / 1e6 }
	for _, s := range l.spans {
		if s.Parent != 0 {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], interval{at(s.Start), at(s.End)})
		}
	}
	out := make(map[string][]float64)
	for _, s := range l.spans {
		self := selfTime(interval{at(s.Start), at(s.End)}, children[key{s.Trace, s.ID}])
		out[s.Name] = append(out[s.Name], self)
	}
	for _, v := range out {
		sort.Float64s(v)
	}
	return out
}

// write stores every span as one JSON object per line.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
