// Command perfbench is the AL-VC control-plane benchmark. It stands up
// the control plane the way cmd/alvc-server wires it (server defaults,
// optimizer and tracing on), serves internal/server's Handler() on a
// loopback listener behind a timing middleware, and drives it over
// HTTP from the same process with one connection and one worker per
// CPU.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload storm --seed 1 --seconds 20 --trace 1
//	bash perfbench/run.sh --workload onboard --seed 1 --seconds 20 --repeat 10
//
// Workloads are churn (open-loop tenant traffic), onboard (closed-loop
// batch fills of a 4-shard WDM fabric) and storm (closed-loop SRLG
// tray failures on a protected fleet). --trace 0 measures the
// end-to-end metrics; --trace 1 makes the per-layer run. --repeat N
// runs the workload N times with seeds seed..seed+N-1 and prints each
// metric's median and quartiles, flagging spreads wider than the
// metric's bound. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// workloadRun is one workload's life: set-up up to the measured phase,
// the measured phase, the closing output checks, and shutdown.
type workloadRun interface {
	setup() error
	measure() error
	finish() error
	stop()
	measured() *measurement
	plane() *plane
}

var workloads = []string{"churn", "onboard", "storm"}

func newWorkload(name string, seed int64, length time.Duration, traced bool) (workloadRun, error) {
	switch name {
	case "churn":
		return newChurn(seed, length, traced), nil
	case "onboard":
		return newOnboard(seed, length, traced), nil
	case "storm":
		return newStorm(seed, length, traced), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want churn, onboard or storm)", name)
}

// result is the benchmark's machine-readable output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload: churn, onboard or storm")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 makes the per-layer (traced) run")
	repeat := flag.Int("repeat", 0, "run the workload this many times and print medians and quartiles")
	printSpec := flag.Bool("print-spec", false, "print the BENCHMARK.json the metric tables define and exit")
	flag.Parse()
	if *printSpec {
		spec, err := benchmarkSpec()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Println(string(spec))
		return 0
	}
	if !slices.Contains(workloads, *name) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(*name, *seed, *seconds, *traced, *repeat)
	}
	length := time.Duration(*seconds) * time.Second
	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = tracedRun(*name, *seed, length, filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)))
	} else {
		res, err = endToEndRun(*name, *seed, length)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// spanDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from.
var spanDir = filepath.Join(".bench_build", "spans")

// A run sets the control plane up setupBefore times before the
// measured phase, measuring on the last one, and setupAfter times after
// it, and reports the median set-up time. The host's speed drifts over
// seconds, so set-ups taken back to back all see the same speed;
// splitting them around the measured phase samples it twice.
const (
	setupBefore = 5
	setupAfter  = 4
)

// endToEndRun sets the workload up, measures the last set-up made
// before the measured phase and reports the end-to-end metrics.
func endToEndRun(name string, seed int64, length time.Duration) (*result, error) {
	var setups []float64
	setUp := func() (workloadRun, error) {
		w, err := newWorkload(name, seed, length, false)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		err = w.setup()
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			if w.plane() != nil {
				w.stop()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		return w, nil
	}
	var w workloadRun
	for i := 0; i < setupBefore; i++ {
		if w != nil {
			w.stop()
		}
		var err error
		if w, err = setUp(); err != nil {
			return nil, err
		}
	}
	if err := w.measure(); err != nil {
		w.stop()
		return nil, fmt.Errorf("measure: %w", err)
	}
	if err := w.finish(); err != nil {
		w.stop()
		return nil, fmt.Errorf("finish: %w", err)
	}
	w.stop()
	for i := 0; i < setupAfter; i++ {
		extra, err := setUp()
		if err != nil {
			return nil, err
		}
		extra.stop()
	}
	m := w.measured()
	values := m.endToEnd()
	sort.Float64s(setups)
	values["setup_s"] = setups[len(setups)/2]
	printReport(name, m)
	printMetrics(name, endToEnd, values)
	printMetrics(name, perLayerReport, m.perLayer())
	return newResult(m, endToEnd, values), nil
}

// perLayerReport lists per-layer figures worth printing on every run:
// the latency tails and the figures that tell whether the run itself
// was valid.
var perLayerReport = []metricDef{
	{Name: "tail.provision_or_repair_p99_ms", Unit: "ms"},
	{Name: "tail.delete_or_reprotect_p99_ms", Unit: "ms"},
	{Name: "tail.read_p99_ms", Unit: "ms"},
	{Name: "gen.late_p99_ms", Unit: "ms"},
	{Name: "nfv.capacity_conflicts", Unit: "count"},
	{Name: "storm.unprotected_ratio", Unit: "ratio"},
}

// tracedRun makes the per-layer run: an untraced half that yields the
// counter and timing breakdown, then a traced half that records spans
// and yields self times and the tracing overhead.
func tracedRun(name string, seed int64, length time.Duration, spanPath string) (*result, error) {
	half := length / 2
	plain, err := singleRun(name, seed, half, false)
	if err != nil {
		return nil, err
	}
	values := plain.perLayer()
	plainP50 := plain.endToEnd()["provision_or_repair_p50_ms"]
	// Let the untraced half's control plane go before the traced half.
	plain.p = nil
	traced, err := singleRun(name, seed, half, true)
	if err != nil {
		return nil, err
	}
	for k, v := range traceLayer(traced.p.spans) {
		values[k] = v
	}
	values["bench.trace_overhead_ratio"] = ratio(traced.endToEnd()["provision_or_repair_p50_ms"], plainP50)
	if err := traced.p.spans.write(spanPath); err != nil {
		return nil, err
	}
	fmt.Printf("# spans written to %s\n", spanPath)
	printReport(name, plain)
	defs := perLayer()
	printMetrics(name, defs, values)
	res := newResult(plain, defs, values)
	res.Correct = res.Correct && len(traced.violations) == 0
	for _, v := range traced.violations {
		fmt.Fprintf(os.Stderr, "violation (traced phase): %s\n", v)
	}
	res.Attempted += traced.attempted.Load()
	res.Failed += traced.failedTotal()
	return res, nil
}

// singleRun sets a workload up once and measures it; in a traced run it
// also copies the program's spans out of its trace store.
func singleRun(name string, seed int64, length time.Duration, traced bool) (*measurement, error) {
	w, err := newWorkload(name, seed, length, traced)
	if err != nil {
		return nil, err
	}
	if err := w.setup(); err != nil {
		if w.plane() != nil {
			w.stop()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.stop()
	if err := w.measure(); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	if err := w.finish(); err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	if traced {
		if dropped := w.plane().spans.collect(w.plane().arch.TraceStore()); dropped > 0 {
			w.measured().violate("trace store dropped %d spans", dropped)
		}
	}
	return w.measured(), nil
}

// printReport prints a run's request counts by failure cause and its
// output-check violations.
func printReport(name string, m *measurement) {
	fmt.Printf("# workload %s: %d requests, %d failed", name, m.attempted.Load(), m.failedTotal())
	for _, c := range causes {
		if n := m.failed[c].Load(); n > 0 {
			fmt.Printf(", %s %d", c, n)
		}
	}
	fmt.Println()
	for _, v := range m.violations {
		fmt.Fprintf(os.Stderr, "violation: %s\n", v)
	}
}

// printMetrics prints one line per metric: its name, value and unit,
// and the workload-specific name of the figure where it has one.
func printMetrics(name string, defs []metricDef, values map[string]float64) {
	for _, def := range defs {
		alias := ""
		if a, ok := reportNames[name][def.Name]; ok {
			alias = "(" + a + ")"
		}
		fmt.Printf("%-44s %14.4f %-8s %s\n", def.Name, values[def.Name], def.Unit, alias)
	}
}

func newResult(m *measurement, defs []metricDef, values map[string]float64) *result {
	res := &result{
		Correct:   len(m.violations) == 0,
		Attempted: m.attempted.Load(),
		Failed:    m.failedTotal(),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, def := range defs {
		res.Metrics[def.Name] = metricValue{Value: values[def.Name], Unit: def.Unit}
	}
	return res
}
