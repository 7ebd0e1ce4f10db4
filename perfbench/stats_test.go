package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/trace"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 50.5}, {99, 99.01}, {100, 100}} {
		if got := percentile(v, c.p); !near(got, c.want) {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %v", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(x, n=4)
// returns for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; !near(got[0], c.want[0]) || !near(got[1], c.want[1]) || !near(got[2], c.want[2]) {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 10}
	for _, c := range []struct {
		children []interval
		want     float64
	}{
		{nil, 10},
		{[]interval{{1, 3}}, 8},
		{[]interval{{1, 3}, {2, 5}, {8, 12}}, 4}, // overlap counted once, overhang clipped
		{[]interval{{-5, -1}, {11, 20}}, 10},     // outside the parent
		{[]interval{{0, 10}, {2, 3}}, 0},
	} {
		if got := selfTime(parent, c.children); !near(got, c.want) {
			t.Errorf("selfTime(%v) = %v, want %v", c.children, got, c.want)
		}
	}
}

// TestSpanSelfTimes joins benchmark spans with program spans read from
// a trace store and checks each layer's self time.
func TestSpanSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	store := trace.NewStore(trace.StoreOptions{})
	tr := trace.NewTracer(store)
	sc := tr.StartTrace("pb-1")
	tr.RecordChild(sc, "path", trace.KindStage, at(3), 2*time.Millisecond, nil)
	tr.Record(trace.Span{TraceID: "pb-1", SpanID: sc.SpanID, Name: "POST /v1/chains", Kind: trace.KindHTTP,
		Start: at(2), End: at(8)})

	l := newSpanLog()
	client, handler := l.nextID(), l.nextID()
	l.add(span{Trace: "pb-1", ID: client, Name: "client.provision", Start: at(0), End: at(10)})
	l.add(span{Trace: "pb-1", ID: handler, Parent: client, Name: "handler.provision", Start: at(1), End: at(9)})
	if dropped := l.collect(store); dropped != 0 {
		t.Fatalf("dropped %d spans", dropped)
	}
	want := map[string][]float64{
		"client.provision":  {2},
		"handler.provision": {2},
		"http.provision":    {4},
		"stage.path":        {2},
	}
	if got := l.selfTimes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	layer := traceLayer(l)
	if layer["trace.self_ms.http.p50"] != 4 || layer["trace.self_ms.stage.path.p99"] != 2 || layer["trace.self_ms.client.p50"] != 2 {
		t.Fatalf("trace layer metrics %v", layer)
	}
}

func TestParseScrape(t *testing.T) {
	body := `# HELP alvc_x test
# TYPE alvc_x counter
alvc_x{shard="0",kind="a"} 3
alvc_x{shard="1",kind="b"} 4
alvc_y 2.5
`
	s, err := parseScrape(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sum("alvc_x"); got != 7 {
		t.Errorf("sum = %v", got)
	}
	if got := s.sum("alvc_x", `kind="b"`); got != 4 {
		t.Errorf("labelled sum = %v", got)
	}
	if got := s.sum("alvc_y"); got != 2.5 {
		t.Errorf("unlabelled sum = %v", got)
	}
	before, _ := parseScrape(`alvc_x{shard="0",kind="a"} 1`)
	if got := s.diff(before).sum("alvc_x"); got != 6 {
		t.Errorf("diff sum = %v", got)
	}
	if _, err := parseScrape("alvc_x notanumber\n"); err == nil {
		t.Error("malformed value parsed")
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the metrics the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the benchmark's table:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from the benchmark's table")
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloads)
	}
}
