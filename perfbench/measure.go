package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alvc/alvc/internal/server"
	"github.com/alvc/alvc/internal/topology"
)

// Latency families of the end-to-end metrics.
const (
	latPrimary   = "primary"   // provision (churn), batch provision (onboard), repair (storm)
	latSecondary = "secondary" // delete (churn, onboard), re-protect (storm)
	latRead      = "read"      // every GET
	latOther     = "other"     // storm's link recoveries and refresh drains
)

// measurement is what one measured phase records: every request's
// outcome, the counters read around the phase, and the output-check
// violations.
type measurement struct {
	p      *plane
	length time.Duration

	attempted atomic.Int64
	failed    map[string]*atomic.Int64
	// conflicts counts provisions refused with 409 insufficient
	// capacity, including those a retry then admitted.
	conflicts atomic.Int64
	lat       map[string]*series
	// late is how far behind schedule each open-loop request started.
	late series

	mu         sync.Mutex
	violations []string
	// Chain-level observations of admitted (or, on storm, resident)
	// chains: slice sizes, NF hosts on optical switches, conversions
	// and standby disjointness; protected counts the chains of
	// protChains that held a standby when checked.
	chains, disjoint              int
	protChains, protected         int
	sliceOPS, hosts, opticalHosts int
	conversions                   int
	// work counts the chains a workload's primary requests admitted,
	// or on storm the storm cycles; workTime is the time those requests
	// took, or on churn and storm the length of the measured phase.
	work     int
	workTime time.Duration
	// ops normalizes per-operation counters: provisions (churn),
	// admitted chains (onboard), storms (storm).
	ops    int
	storms int
	// extra holds workload-specific per-layer figures.
	extra map[string]float64

	before, after       scrape
	memBefore, memAfter runtime.MemStats
	heapMB              float64
}

func newMeasurement(p *plane, length time.Duration) *measurement {
	m := &measurement{p: p, length: length, failed: map[string]*atomic.Int64{},
		lat: map[string]*series{latPrimary: {}, latSecondary: {}, latRead: {}, latOther: {}}, extra: map[string]float64{}}
	for _, c := range causes {
		m.failed[c] = &atomic.Int64{}
	}
	return m
}

func (m *measurement) violate(format string, args ...any) {
	m.mu.Lock()
	m.violations = append(m.violations, fmt.Sprintf(format, args...))
	m.mu.Unlock()
}

// record counts one request. A failed request counts under its cause
// and, so that it misses every latency limit, as lasting the whole
// measured phase.
func (m *measurement) record(family string, r reply, latency time.Duration) bool {
	m.attempted.Add(1)
	if c := r.cause(); c != "" {
		m.failed[c].Add(1)
		m.lat[family].addDur(m.length)
		return false
	}
	m.lat[family].addDur(latency)
	return true
}

// capacityRetries is how many times a provision refused with 409
// insufficient capacity is sent again. With two connections or two
// batch workers, placement and instantiate race on a nearly full
// router (a known defect): a concurrent provision reserves the router
// the refused one was placed on, and a retry places it elsewhere. A
// tenant client would retry such a refusal; each one still counts as
// a capacity conflict and its time as part of the provision's latency.
const capacityRetries = 4

func (m *measurement) failedTotal() int64 {
	var n int64
	for _, c := range m.failed {
		n += c.Load()
	}
	return n
}

// addWork counts chains admitted by one primary request and the time
// the request took.
func (m *measurement) addWork(chains int, d time.Duration) {
	m.mu.Lock()
	m.work += chains
	m.workTime += d
	m.mu.Unlock()
}

// observe records the chain-level figures of one chain.
func (m *measurement) observe(dep *server.DeploymentJSON) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.chains++
	if dep.Standby != nil && dep.Standby.Disjoint {
		m.disjoint++
	}
	m.sliceOPS += len(dep.SliceOPSs)
	m.conversions += dep.Conversions
	for _, h := range dep.Hosts {
		m.hosts++
		if n := m.p.topo.Node(h); n != nil && n.Kind == topology.KindOPS {
			m.opticalHosts++
		}
	}
}

// protection records whether one chain holds a standby.
func (m *measurement) protection(dep *server.DeploymentJSON) {
	m.mu.Lock()
	m.protChains++
	if dep.Standby != nil {
		m.protected++
	}
	m.mu.Unlock()
}

// begin reads the counters the phase's per-layer metrics diff against.
func (m *measurement) begin() error {
	s, _, err := m.p.scrape()
	if err != nil {
		return err
	}
	m.before = s
	// The route timings start with the measured phase too.
	for _, r := range routes {
		m.p.mw.handler[r].reset()
		m.p.mw.bytes[r].reset()
		m.p.wire[r].reset()
	}
	runtime.ReadMemStats(&m.memBefore)
	return nil
}

// end reads the counters after the phase and the live heap after a
// forced collection.
func (m *measurement) end() error {
	runtime.ReadMemStats(&m.memAfter)
	// Two collections: sync.Pool contents survive the first as victims.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	s, _, err := m.p.scrape()
	if err != nil {
		return err
	}
	m.after = s
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the end-to-end metrics other than setup_s.
func (m *measurement) endToEnd() map[string]float64 {
	return map[string]float64{
		"provision_or_repair_p50_ms": percentile(m.lat[latPrimary].values(), 50),
		"delete_or_reprotect_p50_ms": percentile(m.lat[latSecondary].values(), 50),
		"read_p50_ms":                percentile(m.lat[latRead].values(), 50),
		"throughput_per_s":           ratio(float64(m.work), m.workTime.Seconds()),
		"protected_ratio":            ratio(float64(m.protected), float64(m.protChains)),
		"oeo_per_chain":              ratio(float64(m.conversions), float64(m.chains)),
		"heap_mb":                    m.heapMB,
	}
}

// perLayer computes the per-layer metrics of an untraced phase from
// the middleware's timings, the client's wire times, the /metrics
// diffs and the process's memory statistics, plus the end-to-end
// latency tails.
func (m *measurement) perLayer() map[string]float64 {
	out := map[string]float64{
		"tail.provision_or_repair_p99_ms": percentile(m.lat[latPrimary].values(), 99),
		"tail.delete_or_reprotect_p99_ms": percentile(m.lat[latSecondary].values(), 99),
		"tail.read_p99_ms":                percentile(m.lat[latRead].values(), 99),
	}
	d := m.after.diff(m.before)
	ops, storms := float64(m.ops), float64(m.storms)
	for _, r := range timedRoutes {
		h := m.p.mw.handler[r].values()
		out["server.handler_ms."+r+".p50"] = percentile(h, 50)
		out["server.handler_ms."+r+".p99"] = percentile(h, 99)
		out["server.wire_ms."+r] = percentile(m.p.wire[r].values(), 50)
		out["server.resp_bytes."+r] = mean(m.p.mw.bytes[r].values())
	}
	for _, s := range stages {
		l := `stage="` + s + `"`
		out["orch.stage_ms."+s] = 1000 * ratio(d.sum("alvc_orch_pipeline_stage_seconds_sum", l),
			d.sum("alvc_orch_pipeline_stage_seconds_count", l))
	}
	for _, a := range repairActions {
		out["orch.repairs."+a] = ratio(d.sum("alvc_orch_repairs_total", `action="`+a+`"`), storms)
	}
	hits, misses := d.sum("alvc_sdn_candidate_cache_hits_total"), d.sum("alvc_sdn_candidate_cache_misses_total")
	out["sdn.path_computations_per_op"] = ratio(d.sum("alvc_sdn_path_computations_total"), ops)
	out["sdn.yen_runs_per_op"] = ratio(d.sum("alvc_sdn_yen_runs_total"), ops)
	out["sdn.alt_cache_hit_ratio"] = ratio(hits, hits+misses)
	out["topology.graph_builds"] = d.sum("alvc_topology_graph_builds_total")
	out["topology.snapshot_hits_per_op"] = ratio(d.sum("alvc_topology_snapshot_hits_total"), ops)
	out["topology.liveness_patches_per_storm"] = ratio(d.sum("alvc_topology_liveness_patches_total"), storms)
	out["cluster.al_size_mean"] = ratio(float64(m.sliceOPS), float64(m.chains))
	out["resilience.disjoint_ratio"] = ratio(float64(m.disjoint), float64(m.chains))
	out["placement.optical_share"] = ratio(float64(m.opticalHosts), float64(m.hosts))
	out["nfv.capacity_conflicts"] = float64(m.conflicts.Load())
	for _, k := range taskKinds {
		out["optimizer.tasks_per_storm."+k] = ratio(d.sum("alvc_optimizer_tasks_total", `kind="`+k+`"`, `outcome="completed"`), storms)
	}
	out["optimizer.group_buckets_per_storm"] = ratio(d.sum("alvc_groupplan_buckets_total"), storms)
	highWater := 0.0
	for series, v := range m.after {
		if strings.HasPrefix(series, "alvc_optimizer_queue_high_water{") {
			highWater = math.Max(highWater, v)
		}
	}
	out["optimizer.queue_high_water"] = highWater
	out["optimizer.shed"] = d.sum("alvc_optimizer_queue_shed_total")
	out["telemetry.scrape_ms"] = percentile(m.p.mw.handler[routeMetrics].values(), 50)
	out["telemetry.scrape_bytes"] = mean(m.p.mw.bytes[routeMetrics].values())
	out["trace.spans_per_op"] = ratio(d.sum("alvc_trace_spans_total"), ops)
	out["go.allocs_per_op"] = ratio(float64(m.memAfter.Mallocs-m.memBefore.Mallocs), ops)
	out["go.alloc_bytes_per_op"] = ratio(float64(m.memAfter.TotalAlloc-m.memBefore.TotalAlloc), ops)
	out["go.gc_cycles"] = float64(m.memAfter.NumGC - m.memBefore.NumGC)
	out["gen.late_p99_ms"] = percentile(m.late.values(), 99)
	for _, c := range causes {
		out["failed."+c] = float64(m.failed[c].Load())
	}
	for k, v := range m.extra {
		out[k] = v
	}
	return out
}

// traceLayer computes the self-time metrics of a traced phase.
func traceLayer(l *spanLog) map[string]float64 {
	out := map[string]float64{}
	self := l.selfTimes()
	for _, s := range selfSpans {
		var v []float64
		for name, times := range self {
			// client and http spans are named per route; they fold together.
			if name == s || (s == "client" || s == "http") && strings.HasPrefix(name, s+".") {
				v = append(v, times...)
			}
		}
		sort.Float64s(v)
		out["trace.self_ms."+s+".p50"] = percentile(v, 50)
		out["trace.self_ms."+s+".p99"] = percentile(v, 99)
	}
	return out
}
