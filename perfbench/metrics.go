package main

import "encoding/json"

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the control plane sees. Every
// workload reports every one of them; the latency medians name the two
// write requests whose figure they carry on each workload:
//
//	metric                     churn              onboard                storm
//	provision_or_repair_p50_ms POST /v1/chains    POST /v1/chains:batch  POST /v1/failures:batch
//	delete_or_reprotect_p50_ms DELETE /v1/chains  DELETE /v1/chains      POST /v1/optimizer:run after the storm
//	read_p50_ms                every GET          every GET              every GET
//	throughput_per_s           chains admitted    chains admitted per s  storm cycles per s
//	                           per s (48 offered) of batch time
//	protected_ratio            at provision       at provision           after the re-protect drain
//
// The p99 of each latency is reported too, as a per-layer figure
// without a bound: on a shared 2-CPU host its spread between runs
// (a third to a half of its median) is wider than any bound a
// regression gate could use.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"provision_or_repair_p50_ms", "ms", "lower", 0.25},
	{"delete_or_reprotect_p50_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"protected_ratio", "ratio", "higher", 0.05},
	{"oeo_per_chain", "count", "lower", 0.1},
	{"heap_mb", "MB", "lower", 0.2},
}

// reportNames are the per-workload names of the latency and rate
// figures, printed in the human-readable report next to the generic
// names.
var reportNames = map[string]map[string]string{
	"churn": {
		"provision_or_repair_p50_ms":      "provision_p50_ms",
		"tail.provision_or_repair_p99_ms": "provision_p99_ms",
		"delete_or_reprotect_p50_ms":      "delete_p50_ms",
		"tail.delete_or_reprotect_p99_ms": "delete_p99_ms",
		"throughput_per_s":                "provision_rps",
	},
	"onboard": {
		"provision_or_repair_p50_ms":      "batch_p50_ms",
		"tail.provision_or_repair_p99_ms": "batch_p99_ms",
		"delete_or_reprotect_p50_ms":      "delete_p50_ms",
		"tail.delete_or_reprotect_p99_ms": "delete_p99_ms",
		"throughput_per_s":                "provision_rps",
	},
	"storm": {
		"provision_or_repair_p50_ms":      "repair_p50_ms",
		"tail.provision_or_repair_p99_ms": "repair_p99_ms",
		"delete_or_reprotect_p50_ms":      "reprotect_p50_ms",
		"tail.delete_or_reprotect_p99_ms": "reprotect_p99_ms",
		"throughput_per_s":                "storms_per_s",
		"storm.unprotected_ratio":         "unprotected_ratio",
	},
}

// Names of the pipeline stages, repair actions and optimizer task
// kinds the per-layer metrics break down by.
var (
	stages        = []string{"cluster", "slice", "placement", "instantiate", "path", "standby", "wdm", "rules"}
	repairActions = []string{"swapped", "repathed", "restandby", "patched", "replaced", "rebuilt", "failed"}
	taskKinds     = []string{"re-protect", "refresh", "re-home", "lambda-defrag"}
	selfSpans     = []string{"client", "http", "provision", "delete", "repair", "optimizer",
		"stage.cluster", "stage.slice", "stage.placement", "stage.instantiate",
		"stage.path", "stage.standby", "stage.wdm", "stage.rules"}
)

// timedRoutes are the routes the server-layer metrics report.
var timedRoutes = routes[:len(routes)-1]

// workloadWhy records why each workload is in the benchmark.
var workloadWhy = []struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}{
	{"churn", "open-loop Poisson tenant churn on a 128-OPS core: the full provision pipeline (AL cover, standby Yen) and reads that grow with the deployments map"},
	{"onboard", "closed-loop batch fills of a 4-shard WDM fabric: AL cover on a shrinking free pool, batch workers, shard routing and the wdm stage"},
	{"storm", "closed-loop SRLG tray cuts on a protected 4-shard fleet: repair, swap and repath, liveness patching and re-protection; AL cover stays idle"},
}

// runSeconds is the measured-phase length the repository's benchmark
// runs use. It stays below the server's 30-s optimizer idle tick, which
// sweeps the whole fleet: a phase that ended just after a tick would
// catch part of a sweep's burst in some runs and none in others.
const runSeconds = 25

// benchmarkSpec renders the repository's BENCHMARK.json from the
// tables above (perfbench --print-spec).
func benchmarkSpec() ([]byte, error) {
	return json.MarshalIndent(map[string]any{
		"command":     []string{"bash", "perfbench/run.sh"},
		"paths":       []string{"perfbench"},
		"run_seconds": runSeconds,
		"workloads":   workloadWhy,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer(),
	}, "", "  ")
}

// perLayer lists the single-layer metrics of a traced run. A metric a
// workload does not exercise reads 0 there.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, r := range timedRoutes {
		add("server.handler_ms."+r+".p50", "ms", "lower")
		add("server.handler_ms."+r+".p99", "ms", "lower")
		add("server.wire_ms."+r, "ms", "lower")
		add("server.resp_bytes."+r, "bytes", "lower")
	}
	for _, s := range stages {
		add("orch.stage_ms."+s, "ms", "lower")
	}
	for _, a := range repairActions {
		add("orch.repairs."+a, "1/storm", "lower")
	}
	add("orch.deployments_retained", "count", "lower")
	add("sdn.path_computations_per_op", "1/op", "lower")
	add("sdn.yen_runs_per_op", "1/op", "lower")
	add("sdn.alt_cache_hit_ratio", "ratio", "higher")
	add("topology.graph_builds", "count", "lower")
	add("topology.snapshot_hits_per_op", "1/op", "higher")
	add("topology.liveness_patches_per_storm", "1/storm", "lower")
	add("cluster.al_size_mean", "OPS", "lower")
	add("cluster.pool_free_ratio", "ratio", "higher")
	add("placement.optical_share", "ratio", "higher")
	add("nfv.capacity_conflicts", "count", "lower")
	add("optical.lambda_occupancy", "ratio", "lower")
	for _, k := range taskKinds {
		add("optimizer.tasks_per_storm."+k, "1/storm", "lower")
	}
	add("optimizer.group_buckets_per_storm", "1/storm", "lower")
	add("optimizer.queue_high_water", "tasks", "lower")
	add("optimizer.shed", "tasks", "lower")
	add("telemetry.scrape_ms", "ms", "lower")
	add("telemetry.scrape_bytes", "bytes", "lower")
	add("trace.spans_per_op", "1/op", "lower")
	add("go.allocs_per_op", "1/op", "lower")
	add("go.alloc_bytes_per_op", "bytes/op", "lower")
	add("go.gc_cycles", "count", "lower")
	add("tail.provision_or_repair_p99_ms", "ms", "lower")
	add("tail.delete_or_reprotect_p99_ms", "ms", "lower")
	add("tail.read_p99_ms", "ms", "lower")
	add("gen.late_p99_ms", "ms", "lower")
	for _, c := range causes {
		add("failed."+c, "count", "lower")
	}
	add("resilience.disjoint_ratio", "ratio", "higher")
	add("storm.unprotected_ratio", "ratio", "lower")
	for _, s := range selfSpans {
		add("trace.self_ms."+s+".p50", "ms", "lower")
		add("trace.self_ms."+s+".p99", "ms", "lower")
	}
	add("bench.trace_overhead_ratio", "ratio", "lower")
	return out
}
