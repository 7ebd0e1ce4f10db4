package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns runs the workload n times, each in its own process with
// seeds seed..seed+n-1, and prints every metric's median, quartiles and
// spread (the distance between the quartiles as a share of the median).
// A spread wider than the metric's bound is flagged; setup_s is
// flagged too, though only its median shift is gated.
func repeatRuns(name string, seed int64, seconds, traced, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: %v\n", s, err)
			return 1
		}
		res, err := lastResult(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d: %v\n", s, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: run with seed %d failed its output checks\n", s)
			return 1
		}
		fmt.Printf("# seed %d: %d attempted, %d failed:", s, res.Attempted, res.Failed)
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; ok {
				fmt.Printf(" %.4g", v.Value)
			}
		}
		fmt.Println()
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.Name] = d.Bound
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	medians := map[string]float64{}
	wide := 0
	fmt.Printf("%-44s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, k := range names {
		q1, med, q3 := quartiles(values[k])
		medians[k] = med
		spread := ratio(q3-q1, med)
		flag := ""
		if b, ok := bounds[k]; ok && spread > b {
			flag = "  SPREAD ABOVE BOUND"
			wide++
		}
		fmt.Printf("%-44s %12.4f %12.4f %12.4f %8.4f %6.2f %s%s\n", k, q1, med, q3, spread, bounds[k], units[k], flag)
	}
	out, _ := json.Marshal(map[string]any{"workload": name, "runs": n, "medians": medians})
	fmt.Println(string(out))
	if wide > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d metrics spread wider than their bound\n", wide)
	}
	return 0
}

// lastResult parses the result line a run prints last.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	return &res, nil
}
