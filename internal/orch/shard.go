// The orchestrator: n ≥ 1 shards over one shared physical substrate.
// Each shard owns its own deployment map, reverse node/link→deployment
// indexes, flow-key reservations, busy guards, SDN flow tables and —
// critically for throughput — its own cluster allocator over a
// disjoint partition of the OPS pool, so the vertex-cover search that
// dominates provisioning (the single global allocator mutex was the
// measured lock convoy in BENCH_load) runs on an n-times smaller
// candidate set with zero cross-shard contention.
// The topology, its epoch-keyed routing snapshots, the capacity ledger
// and the wavelength allocator stay shared: they are physical truth and
// must be globally consistent.
//
// This is the domain decomposition of Bhamare et al.'s multi-cloud SFC
// placement mapped onto one data center: a tenant (or a rack-pod-style
// hash of the chain ID) is a placement domain, and cross-domain
// operations — batch failure handling, fleet metrics, optimizer status
// — fan out over the domains and merge.
package orch

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/cluster"
	"github.com/alvc/alvc/internal/resilience"
	"github.com/alvc/alvc/internal/sdn"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/trace"
)

// ShardMode selects what the router hashes to pick a shard.
type ShardMode int

const (
	// ShardByTenant (the default) routes every chain of a tenant to the
	// same shard: tenant isolation maps one-to-one onto state isolation,
	// and a tenant's chains never contend with another tenant's for the
	// shard lock.
	ShardByTenant ShardMode = iota
	// ShardByChain routes on the full flow key (tenant/name), spreading
	// even a single giant tenant across all shards — the rack-pod-style
	// decomposition, trading tenant locality for uniform load.
	ShardByChain
)

// String returns the mode name.
func (m ShardMode) String() string {
	switch m {
	case ShardByTenant:
		return "tenant"
	case ShardByChain:
		return "chain"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Orchestrator is the multi-tenant control point of Fig. 6: n ≥ 1
// shards over one sharedCore, with per-deployment verbs routed to the
// owning shard and fleet-wide operations fanned out over all shards
// and merged. Routing is pure arithmetic over immutable fields, so it
// needs no lock: specs hash (FNV-1a) on tenant or flow key, and
// deployment IDs decode their issuing shard from the ID stride
// ((id-1) mod n). Safe for concurrent use.
type Orchestrator struct {
	*sharedCore
	mode   ShardMode
	shards []*shard
}

// New builds cfg.Shards orchestrator shards (at least one) over one
// shared core. With more than one shard the topology's OPSs are
// partitioned round-robin (in ID order) into disjoint allocator pools;
// a single shard owns the whole pool.
func New(cfg Config) (*Orchestrator, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("orch: nil topology")
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	opss := cfg.Topo.NodeIDs(topology.KindOPS)
	if n > 1 && len(opss) < n {
		return nil, fmt.Errorf("orch: %d shards need at least %d OPSs, topology has %d",
			n, n, len(opss))
	}
	core, err := newSharedCore(cfg)
	if err != nil {
		return nil, fmt.Errorf("orch: %w", err)
	}
	builder := cfg.Builder
	if builder == nil {
		builder = cluster.PaperBuilder{}
	}
	o := &Orchestrator{sharedCore: core, mode: cfg.ShardMode, shards: make([]*shard, n)}
	for i := 0; i < n; i++ {
		var pool []topology.NodeID
		if n > 1 {
			// Round-robin over the ID-sorted OPS list: pool sizes differ
			// by at most one and stay deterministic across runs.
			for j := i; j < len(opss); j += n {
				pool = append(pool, opss[j])
			}
		}
		alloc, err := cluster.NewRestrictedAllocator(cfg.Topo, builder, pool)
		if err != nil {
			return nil, fmt.Errorf("orch: shard %d: %w", i, err)
		}
		ctrl, err := sdn.NewController(cfg.Topo)
		if err != nil {
			return nil, fmt.Errorf("orch: shard %d: %w", i, err)
		}
		o.shards[i] = newShard(core, alloc, ctrl, i, n)
	}
	return o, nil
}

// Shards returns the shard count.
func (o *Orchestrator) Shards() int { return len(o.shards) }

// Shard returns the i-th shard, for per-shard inspection: its cluster
// allocator (Allocator) and SDN controller (Controller).
func (o *Orchestrator) Shard(i int) *shard { return o.shards[i] }

// ShardOf returns the shard that issued the given deployment ID (shard
// s of n issues IDs s+1, s+1+n, …). Non-positive IDs — never issued —
// map to shard 0 so lookups fail with ErrUnknownDeployment instead of
// an index panic.
func (o *Orchestrator) ShardOf(id DeploymentID) int {
	if id <= 0 {
		return 0
	}
	return int(id-1) % len(o.shards)
}

// shardFor returns the shard owning a spec's tenant/name flow key.
// Both modes derive the shard from the flow key alone, so two specs
// with the same flow key always land on the same shard — which is what
// makes each shard's local flow-key map a global uniqueness check.
func (o *Orchestrator) shardFor(spec chain.Spec) *shard {
	n := len(o.shards)
	if n == 1 {
		return o.shards[0]
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(spec.Tenant))
	if o.mode == ShardByChain {
		_, _ = h.Write([]byte{'/'})
		_, _ = h.Write([]byte(spec.Name))
	}
	return o.shards[h.Sum32()%uint32(n)]
}

func (o *Orchestrator) owner(id DeploymentID) *shard { return o.shards[o.ShardOf(id)] }

// Provision deploys a chain end to end on the shard its flow key
// routes to. On any failure all partial state is rolled back and the
// orchestrator is unchanged. Safe for concurrent use: independent specs
// provision in parallel (see also ProvisionBatch), serialized only at
// the shared resource pools.
func (o *Orchestrator) Provision(spec chain.Spec) (*Deployment, error) {
	return o.ProvisionCtx(context.Background(), spec)
}

// ProvisionCtx is Provision carrying a request context. With a tracer
// attached it records a "provision" span — a child of the span in ctx
// (the server's per-request root) when one is there, the root of a
// fresh trace otherwise — with every executed pipeline stage as a
// child span.
func (o *Orchestrator) ProvisionCtx(ctx context.Context, spec chain.Spec) (*Deployment, error) {
	return o.shardFor(spec).ProvisionCtx(ctx, spec)
}

// Delete tears a deployment down: flow rules removed, VNFs terminated,
// slice and cluster released. The record is kept with state Deleted
// while it is among its shard's most recent tombstones.
func (o *Orchestrator) Delete(id DeploymentID) error {
	return o.DeleteCtx(context.Background(), id)
}

// DeleteCtx is Delete carrying a request context; with a tracer
// attached it records a "delete" span under the span in ctx.
func (o *Orchestrator) DeleteCtx(ctx context.Context, id DeploymentID) error {
	return o.owner(id).DeleteCtx(ctx, id)
}

// Repair tears an active deployment's resources down and rebuilds the
// chain from scratch around the current topology state. This is the
// heavyweight path; HandleFailures prefers the differential repairs in
// reconcile.go and only falls back to this. On success the deployment
// stays Active with Repairs incremented; on failure its resources are
// released and it transitions to Failed.
func (o *Orchestrator) Repair(id DeploymentID) error { return o.owner(id).Repair(id) }

// Upgrade performs a rolling version upgrade of every VNF in the chain
// (§IV-B: upgradation).
func (o *Orchestrator) Upgrade(id DeploymentID) error { return o.owner(id).Upgrade(id) }

// Modify changes a deployment's bandwidth reservation (§IV-B:
// modification of NFCs).
func (o *Orchestrator) Modify(id DeploymentID, bandwidthGbps float64) error {
	return o.owner(id).Modify(id, bandwidthGbps)
}

// ScaleNF scales the chain's NF at position idx to the given replica
// count (§IV-B: scaling during the VNF life cycle).
func (o *Orchestrator) ScaleNF(id DeploymentID, idx, replicas int) error {
	return o.owner(id).ScaleNF(id, idx, replicas)
}

// MoveNF migrates the chain's NF at position idx to another hosting-
// capable node and re-provisions the path and wavelength around the
// new location, transactionally (see the shard's MoveNF).
func (o *Orchestrator) MoveNF(id DeploymentID, idx int, to topology.NodeID) error {
	return o.owner(id).MoveNF(id, idx, to)
}

// ReProtect ensures the deployment has the best standby the current
// topology allows (see optimize.go).
func (o *Orchestrator) ReProtect(id DeploymentID) (*resilience.Standby, bool, error) {
	return o.owner(id).ReProtect(id)
}

// ReProtectGroup re-protects every given chain as one failure-domain
// group (see group.go). The members are partitioned by owning shard
// and each shard's sub-group runs concurrently — every shard builds
// its own GroupPlanner (its OPS pool is its own, so cross-shard bucket
// sharing could never happen anyway). Outcomes merge in ID order and
// the planner stats sum.
func (o *Orchestrator) ReProtectGroup(domain string, ids []DeploymentID) GroupReport {
	rep := GroupReport{Domain: domain}
	if len(ids) == 0 {
		return rep
	}
	perShard := make([][]DeploymentID, len(o.shards))
	for _, id := range ids {
		sh := o.ShardOf(id)
		perShard[sh] = append(perShard[sh], id)
	}
	reports := make([]GroupReport, len(o.shards))
	runPool(len(o.shards), 0, func(i int) {
		if len(perShard[i]) == 0 {
			return
		}
		reports[i] = o.shards[i].ReProtectGroup(domain, perShard[i])
	})
	for _, r := range reports {
		rep.Outcomes = append(rep.Outcomes, r.Outcomes...)
		rep.Stats.Planned += r.Stats.Planned
		rep.Stats.Buckets += r.Stats.Buckets
		rep.Stats.SharedChains += r.Stats.SharedChains
		rep.Stats.Fallbacks += r.Stats.Fallbacks
		rep.Stats.SegmentRequests += r.Stats.SegmentRequests
	}
	sort.Slice(rep.Outcomes, func(i, j int) bool { return rep.Outcomes[i].ID < rep.Outcomes[j].ID })
	return rep
}

// Rehome re-places a drifted chain when a fresh placement beats the
// current one by at least margin O/E/O conversions (see optimize.go).
func (o *Orchestrator) Rehome(id DeploymentID, margin int) (bool, error) {
	return o.owner(id).Rehome(id, margin)
}

// DefragLambda retunes the chain to the lowest wavelength free along
// its whole path (see optimize.go).
func (o *Orchestrator) DefragLambda(id DeploymentID) (from, to int, retuned bool, err error) {
	return o.owner(id).DefragLambda(id)
}

// Deployment returns a snapshot of the deployment, or nil.
func (o *Orchestrator) Deployment(id DeploymentID) *Deployment { return o.owner(id).Deployment(id) }

// Deployments returns snapshots of every shard's records (active
// deployments plus the retained tombstones), sorted by ID.
func (o *Orchestrator) Deployments() []*Deployment {
	var out []*Deployment
	for _, sh := range o.shards {
		out = append(out, sh.Deployments()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ActiveCount returns the number of active deployments.
func (o *Orchestrator) ActiveCount() int {
	n := 0
	for _, sh := range o.shards {
		n += sh.ActiveCount()
	}
	return n
}

// RecoverNode marks a failed node as live again. Existing deployments
// are not rebalanced inline; the emitted recovery event lets an
// attached background optimizer refresh degraded standbys and re-home
// drifted placements, and new deployments may use the node
// immediately.
func (o *Orchestrator) RecoverNode(node topology.NodeID) error {
	o.topoMu.Lock()
	if err := o.topo.SetNodeDown(node, false); err != nil {
		o.topoMu.Unlock()
		return fmt.Errorf("orch: recover node: %w", err)
	}
	o.InvalidateVMCache()
	o.topoMu.Unlock()
	o.emit(Event{Kind: EventNodeRecovered, Node: node})
	return nil
}

// RecoverLink marks a failed link as live again. Existing deployments
// are not rerouted back inline; the emitted recovery event lets an
// attached background optimizer refresh standbys planned around the
// outage, and new paths may use the link immediately.
func (o *Orchestrator) RecoverLink(link topology.LinkID) error {
	o.topoMu.Lock()
	if err := o.topo.SetLinkDown(link, false); err != nil {
		o.topoMu.Unlock()
		return fmt.Errorf("orch: recover link: %w", err)
	}
	// A recovered PM↔ToR link can bring stranded VMs back.
	o.InvalidateVMCache()
	o.topoMu.Unlock()
	o.emit(Event{Kind: EventLinkRecovered, Link: link})
	return nil
}

// NodeImpact answers the operator-planning question "what breaks if
// this node dies": every active deployment whose footprint includes the
// node, straight from the shards' reverse indexes (no scan), sorted by
// ID.
func (o *Orchestrator) NodeImpact(node topology.NodeID) []ImpactEntry {
	var out []ImpactEntry
	for _, sh := range o.shards {
		out = append(out, sh.NodeImpact(node)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LinkImpact is the link variant of NodeImpact: every active deployment
// whose primary or standby path crosses the link, sorted by ID.
func (o *Orchestrator) LinkImpact(link topology.LinkID) []ImpactEntry {
	var out []ImpactEntry
	for _, sh := range o.shards {
		out = append(out, sh.LinkImpact(link)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetEventSink attaches (or, with nil, detaches) the event sink every
// shard emits into. Attaching a sink is purely observational —
// telemetry bridges and event muxes may subscribe freely; whether
// repairs defer standby replanning to a background optimizer is a
// separate switch (SetDeferReprotect), flipped only when an optimizer
// is actually consuming the events.
func (o *Orchestrator) SetEventSink(s EventSink) {
	o.setHooks(func(h *hooks) { h.sink = s })
}

// SetDeferReprotect switches standby replanning between inline and
// deferred mode. Deferred: repair re-runs of the pipeline stop
// planning standbys inline — Yen's search leaves the recovery hot
// path entirely — and instead rely on a background optimizer
// re-protecting the chain from the emitted repair-completed event.
// Provision-time standby planning is unaffected. Only flip this on
// when such an optimizer is subscribed, or repaired chains stay
// unprotected.
func (o *Orchestrator) SetDeferReprotect(v bool) {
	o.setHooks(func(h *hooks) { h.deferReprotect = v })
}

// SetStageObserver installs (or, with nil, removes) the per-stage
// pipeline latency hook, called once per executed stage with the stage
// name and its wall-clock duration. The observer runs synchronously
// inside the provisioning/repair pipeline and must only record, never
// call back into the orchestrator.
func (o *Orchestrator) SetStageObserver(fn func(stage string, d time.Duration)) {
	o.setHooks(func(h *hooks) { h.stageObs = fn })
}

// SetRehomeObserver installs (or, with nil, removes) the re-home churn
// hook, called once per committed VNF migration with source and
// destination racks. Same contract as SetStageObserver: record only.
func (o *Orchestrator) SetRehomeObserver(fn func(fromRack, toRack int)) {
	o.setHooks(func(h *hooks) { h.rehomeObs = fn })
}

// SetTracer installs (or, with nil, removes) the span tracer. With a
// tracer attached, Provision/Delete and every reconciliation repair
// record a span, each executed pipeline stage becomes a child span,
// and repair-completed events carry their repair span's identity so
// downstream consumers (debouncer, optimizer) continue the trace.
// A nil tracer leaves the hot paths with zero span allocations.
func (o *Orchestrator) SetTracer(tr *trace.Tracer) {
	o.setHooks(func(h *hooks) { h.tr = tr })
}

// TopologyJSON serializes the shared topology consistently with
// respect to concurrent failure injection and repair.
func (o *Orchestrator) TopologyJSON() ([]byte, error) {
	o.topoMu.RLock()
	defer o.topoMu.RUnlock()
	return json.Marshal(o.topo)
}

// ControllerOf returns the SDN controller of the shard owning the
// deployment ID — flow rules live in the owning shard's tables.
func (o *Orchestrator) ControllerOf(id DeploymentID) *sdn.Controller { return o.owner(id).ctrl }

// PathComputations sums shortest-path runs across shard controllers.
func (o *Orchestrator) PathComputations() int {
	n := 0
	for _, sh := range o.shards {
		n += sh.ctrl.PathComputations()
	}
	return n
}

// YenRuns sums Yen's k-shortest invocations across shard controllers.
func (o *Orchestrator) YenRuns() int {
	n := 0
	for _, sh := range o.shards {
		n += sh.ctrl.YenRuns()
	}
	return n
}

// RuleCount sums installed flow rules across shard controllers.
func (o *Orchestrator) RuleCount() int {
	n := 0
	for _, sh := range o.shards {
		n += sh.ctrl.RuleCount()
	}
	return n
}

// CandidateCacheStats sums the path-candidate cache hit/miss counters
// across shard controllers.
func (o *Orchestrator) CandidateCacheStats() (hits, misses int64) {
	for _, sh := range o.shards {
		h, m := sh.ctrl.AlternativesCacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// ShardStat is one shard's slice of the fleet, for metrics endpoints
// and the scale bench.
type ShardStat struct {
	Shard  int `json:"shard"`
	Active int `json:"active"`
	// Deleted and Failed count the shard's retained tombstones — the
	// most recent deleted or failed records, at most tombstoneRing in
	// total — not all-time deletes or failures.
	Deleted          int    `json:"deleted"`
	Failed           int    `json:"failed"`
	Repairs          int    `json:"repairs"`
	OPSPool          int    `json:"ops_pool"`
	PathComputations int    `json:"path_computations"`
	YenRuns          int    `json:"yen_runs"`
	InstalledRules   int    `json:"installed_rules"`
	ProvisionOK      uint64 `json:"provision_ok"`
	ProvisionFailed  uint64 `json:"provision_failed"`
	BusyOps          int    `json:"busy_ops"`
	// CandidateCacheHits/Misses are the shard controller's
	// path-candidate memo counters (PathAlternatives served warm vs
	// searched cold).
	CandidateCacheHits   int64 `json:"candidate_cache_hits"`
	CandidateCacheMisses int64 `json:"candidate_cache_misses"`
}

// ShardStats returns one entry per shard, in shard order.
func (o *Orchestrator) ShardStats() []ShardStat {
	out := make([]ShardStat, len(o.shards))
	for i, sh := range o.shards {
		out[i] = sh.shardStat()
	}
	return out
}

// shardStat summarizes this shard's deployments and controller load.
func (o *shard) shardStat() ShardStat {
	st := ShardStat{
		Shard:            o.index,
		OPSPool:          o.alloc.PoolSize(),
		PathComputations: o.ctrl.PathComputations(),
		YenRuns:          o.ctrl.YenRuns(),
		InstalledRules:   o.ctrl.RuleCount(),
	}
	st.CandidateCacheHits, st.CandidateCacheMisses = o.ctrl.AlternativesCacheStats()
	st.ProvisionOK, st.ProvisionFailed = o.provisionOutcomes()
	o.mu.Lock()
	st.BusyOps = len(o.busy)
	st.Repairs = o.droppedRepairs
	for _, dep := range o.deployments {
		switch dep.State {
		case StateActive:
			st.Active++
		case StateDeleted:
			st.Deleted++
		case StateFailed:
			st.Failed++
		}
		st.Repairs += dep.Repairs
	}
	o.mu.Unlock()
	return st
}
