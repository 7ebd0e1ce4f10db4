package orch

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/topology"
)

// shardTopo generates a fabric wide enough that four disjoint per-shard
// OPS pools can each host several ALs: one service, deep PM capacity,
// every ToR uplinked to every core OPS.
func shardTopo(t *testing.T, opsCount int) *topology.Topology {
	t.Helper()
	cfg := topology.DefaultGenConfig()
	cfg.Racks = 4
	cfg.PMsPerRack = 2
	cfg.VMsPerPM = 2
	cfg.OPSCount = opsCount
	cfg.ToRUplinks = opsCount
	cfg.OPSChords = 0
	cfg.OptoFrac = 0.6
	cfg.Services = []string{"web"}
	cfg.PMCapacity = topology.Resources{CPUCores: 1 << 20, MemoryGB: 1 << 20, StorageGB: 1 << 20}
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo
}

func newSharded(t *testing.T, topo *topology.Topology, n int, mode ShardMode) *Orchestrator {
	t.Helper()
	o, err := New(Config{Topo: topo, Shards: n, ShardMode: mode})
	if err != nil {
		t.Fatalf("New(%d shards): %v", n, err)
	}
	return o
}

// assertRoutedToOwner checks that every deployment lives on the shard
// its ID decodes to, and on no other.
func assertRoutedToOwner(t *testing.T, o *Orchestrator, deps []*Deployment) {
	t.Helper()
	for _, dep := range deps {
		owner := o.ShardOf(dep.ID)
		for i := 0; i < o.Shards(); i++ {
			if got := o.Shard(i).Deployment(dep.ID) != nil; got != (i == owner) {
				t.Fatalf("deployment %d on shard %d: %v, owner is shard %d", dep.ID, i, got, owner)
			}
		}
	}
}

// assertDrainsClean deletes every active deployment and checks the
// fleet holds nothing: zero installed rules and every shard's OPS pool
// fully free.
func assertDrainsClean(t *testing.T, o *Orchestrator) {
	t.Helper()
	for _, dep := range o.Deployments() {
		if dep.State != StateActive {
			continue
		}
		if err := o.Delete(dep.ID); err != nil {
			t.Fatalf("delete %d: %v", dep.ID, err)
		}
	}
	if n := o.RuleCount(); n != 0 {
		t.Fatalf("%d flow rules left after delete-all", n)
	}
	for i := 0; i < o.Shards(); i++ {
		a := o.Shard(i).Allocator()
		if free, pool := len(a.AvailableOPS()), a.PoolSize(); free != pool {
			t.Fatalf("shard %d: %d of %d pool OPSs free after delete-all", i, free, pool)
		}
	}
}

func tenantSpec(t *testing.T, i int) chain.Spec {
	t.Helper()
	s, err := chain.Linear(fmt.Sprintf("c-%d", i), fmt.Sprintf("t-%d", i),
		"web", 1, 1<<20, "firewall", "nat")
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	return s
}

func TestShardRouterDeterministicAndStride(t *testing.T) {
	topo := shardTopo(t, 16)
	key := func(o *Orchestrator, tenant, name string) int {
		return o.shardFor(chain.Spec{Tenant: tenant, Name: name}).index
	}
	r := newSharded(t, topo, 4, ShardByTenant)
	if got := key(r, "t-7", "a"); got != key(r, "t-7", "b") {
		t.Fatalf("tenant mode hashed the name: %d vs %d", got, key(r, "t-7", "b"))
	}
	for i := 0; i < 100; i++ {
		tn := fmt.Sprintf("t-%d", i)
		if a, b := key(r, tn, "x"), key(r, tn, "x"); a != b {
			t.Fatalf("routing not deterministic for %s: %d vs %d", tn, a, b)
		}
	}
	rc := newSharded(t, topo, 4, ShardByChain)
	spread := map[int]bool{}
	for i := 0; i < 64; i++ {
		spread[key(rc, "one-tenant", fmt.Sprintf("c-%d", i))] = true
	}
	if len(spread) < 2 {
		t.Fatalf("chain mode kept one tenant on %d shard(s)", len(spread))
	}
	// ID-stride round trip: shard s of n issues IDs s+1, s+1+n, ...
	for n := 1; n <= 16; n *= 4 {
		rn := newSharded(t, topo, n, ShardByTenant)
		for s := 0; s < n; s++ {
			for k := 0; k < 3; k++ {
				id := DeploymentID(s + 1 + k*n)
				if got := rn.ShardOf(id); got != s {
					t.Fatalf("ShardOf(%d) with %d shards = %d, want %d", id, n, got, s)
				}
			}
		}
	}
}

// TestShardedCrossShardFailureRepairsEachChainOnce runs one batch
// failure over a one-shard and a four-shard fleet: the same
// exactly-once, routing and clean-drain assertions hold for both.
func TestShardedCrossShardFailureRepairsEachChainOnce(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			testBatchFailureRepairsEachChainOnce(t, n)
		})
	}
}

func testBatchFailureRepairsEachChainOnce(t *testing.T, n int) {
	const chains = 24
	s := newSharded(t, shardTopo(t, 2*chains), n, ShardByTenant)
	deps := make([]*Deployment, chains)
	for i := range deps {
		dep, err := s.Provision(tenantSpec(t, i))
		if err != nil {
			t.Fatalf("Provision %d: %v", i, err)
		}
		deps[i] = dep
	}
	assertRoutedToOwner(t, s, deps)

	// One failure event spanning shards: the first slice OPS of one
	// chain per shard, all killed in a single batch. Tenants hash to
	// different shards, so with several shards the event crosses at
	// least two of them.
	victimOf := make(map[int]topology.NodeID)
	for _, dep := range deps {
		sh := s.ShardOf(dep.ID)
		if _, ok := victimOf[sh]; !ok && len(dep.Slice.OPSs) > 0 {
			victimOf[sh] = dep.Slice.OPSs[0]
		}
	}
	if len(victimOf) < min(n, 2) {
		t.Fatalf("fleet landed on %d shard(s); need a cross-shard event", len(victimOf))
	}
	var victims []topology.NodeID
	for _, v := range victimOf {
		victims = append(victims, v)
	}

	reports, err := s.HandleFailures(victims, nil)
	if err != nil {
		t.Fatalf("HandleFailures: %v", err)
	}
	if len(reports) == 0 {
		t.Fatal("no chain affected by a slice-OPS batch failure")
	}
	// A report per affected chain, each exactly once. Chains whose
	// primary crossed a dead OPS carry one repair; chains only touched
	// through their standby get a replan (ActionRestandby) and no
	// primary repair.
	repaired := make(map[DeploymentID]bool)
	seen := make(map[DeploymentID]bool)
	for _, rep := range reports {
		if seen[rep.ID] {
			t.Fatalf("deployment %d reconciled twice in one event", rep.ID)
		}
		seen[rep.ID] = true
		if !rep.Succeeded() {
			t.Fatalf("repair of %d failed: action=%v err=%v", rep.ID, rep.Action, rep.Err)
		}
		if rep.Action != ActionRestandby {
			repaired[rep.ID] = true
		}
	}
	for _, dep := range deps {
		cur := s.Deployment(dep.ID)
		if cur == nil {
			t.Fatalf("deployment %d vanished", dep.ID)
		}
		switch {
		case repaired[dep.ID]:
			if cur.Repairs != 1 || cur.State != StateActive {
				t.Fatalf("affected %d: repairs=%d state=%v, want exactly one repair",
					dep.ID, cur.Repairs, cur.State)
			}
		case seen[dep.ID]:
			if cur.Repairs != 0 || cur.State != StateActive {
				t.Fatalf("restandbied %d: repairs=%d state=%v, want untouched primary",
					dep.ID, cur.Repairs, cur.State)
			}
		default:
			if cur.Repairs != 0 || cur.Version != dep.Version {
				t.Fatalf("untouched %d mutated: repairs=%d version=%d->%d",
					dep.ID, cur.Repairs, dep.Version, cur.Version)
			}
		}
	}
	assertRoutedToOwner(t, s, deps)
	assertDrainsClean(t, s)
}

func TestShardedDuplicateFlowKeyRejectedAcrossShards(t *testing.T) {
	s := newSharded(t, shardTopo(t, 32), 4, ShardByTenant)
	spec := tenantSpec(t, 0)
	if _, err := s.Provision(spec); err != nil {
		t.Fatalf("first Provision: %v", err)
	}
	// Same flow key again, through the router: must hit the owning
	// shard's reservation map no matter how many shards exist.
	if _, err := s.Provision(spec); !errors.Is(err, ErrDuplicateChain) {
		t.Fatalf("duplicate Provision error = %v, want ErrDuplicateChain", err)
	}
	// Batch form: intra-batch duplicates are rejected up front, and a
	// batch echo of an already-live key is rejected by its shard.
	dupe := tenantSpec(t, 1)
	results := s.ProvisionBatch([]chain.Spec{dupe, dupe, spec}, 4)
	if results[0].Err != nil {
		t.Fatalf("batch spec 0: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("intra-batch duplicate flow key accepted")
	}
	if !errors.Is(results[2].Err, ErrDuplicateChain) {
		t.Fatalf("batch re-provision of live key = %v, want ErrDuplicateChain", results[2].Err)
	}
}

// TestShardedDeleteVsRepairRaceAcrossShards deletes part of a fleet
// while a batch failure repairs the rest. With two shards shard 0 is
// deleted while shard 1 is repaired; with one shard one chain's slice
// OPS fails and every chain outside its blast radius is deleted.
func TestShardedDeleteVsRepairRaceAcrossShards(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			testDeleteVsRepairRace(t, n)
		})
	}
}

func testDeleteVsRepairRace(t *testing.T, n int) {
	const chains = 16
	s := newSharded(t, shardTopo(t, 2*chains), n, ShardByTenant)
	var all []*Deployment
	for i := 0; i < chains; i++ {
		dep, err := s.Provision(tenantSpec(t, i))
		if err != nil {
			t.Fatalf("Provision %d: %v", i, err)
		}
		all = append(all, dep)
	}
	assertRoutedToOwner(t, s, all)
	hit := func(i int, dep *Deployment) bool {
		if n > 1 {
			return s.ShardOf(dep.ID) == 1
		}
		return i == 1
	}
	var victims []topology.NodeID
	seen := map[topology.NodeID]bool{}
	for i, dep := range all {
		if v := dep.Slice.OPSs[0]; hit(i, dep) && !seen[v] {
			seen[v] = true
			victims = append(victims, v)
		}
	}
	blast := map[DeploymentID]bool{}
	if n == 1 {
		for _, v := range victims {
			for _, e := range s.NodeImpact(v) {
				blast[e.ID] = true
			}
		}
	}
	var doomed, repairing []*Deployment
	for i, dep := range all {
		if (n > 1 && s.ShardOf(dep.ID) == 0) || (n == 1 && !hit(i, dep) && !blast[dep.ID]) {
			doomed = append(doomed, dep)
		} else {
			repairing = append(repairing, dep)
		}
	}
	if len(doomed) == 0 || len(repairing) == 0 {
		t.Fatalf("fleet not spread over both halves: %d/%d", len(doomed), len(repairing))
	}

	// The doomed chains are deleted while a batch failure event repairs
	// the others: the fan-out must not let one side's exclusive verbs
	// block or corrupt the other's reconciliation.
	var wg sync.WaitGroup
	var delErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, dep := range doomed {
			if err := s.Delete(dep.ID); err != nil && delErr == nil {
				delErr = fmt.Errorf("delete %d: %w", dep.ID, err)
			}
		}
	}()
	reports, repErr := s.HandleFailures(victims, nil)
	wg.Wait()
	if delErr != nil {
		t.Fatal(delErr)
	}
	if repErr != nil {
		t.Fatalf("HandleFailures: %v", repErr)
	}
	repairable := map[DeploymentID]bool{}
	for _, dep := range repairing {
		repairable[dep.ID] = true
	}
	for _, rep := range reports {
		if !repairable[rep.ID] {
			t.Fatalf("repair report %d leaked from the deleted half (shard %d)", rep.ID, s.ShardOf(rep.ID))
		}
		if !rep.Succeeded() {
			t.Fatalf("repair of %d failed: action=%v err=%v", rep.ID, rep.Action, rep.Err)
		}
	}
	wantDeleted := make([]int, n)
	wantActive := make([]int, n)
	for _, dep := range doomed {
		if cur := s.Deployment(dep.ID); cur == nil || cur.State != StateDeleted {
			t.Fatalf("doomed deployment %d not deleted: %+v", dep.ID, cur)
		}
		wantDeleted[s.ShardOf(dep.ID)]++
	}
	for _, dep := range repairing {
		if cur := s.Deployment(dep.ID); cur == nil || cur.State != StateActive {
			t.Fatalf("deployment %d not active after repair: %+v", dep.ID, cur)
		}
		wantActive[s.ShardOf(dep.ID)]++
	}
	// Per-shard stats stay consistent with the merged view.
	stats := s.ShardStats()
	for i, st := range stats {
		if st.Deleted != wantDeleted[i] || st.Active != wantActive[i] {
			t.Fatalf("shard stats inconsistent: %+v, want deleted %v active %v", stats, wantDeleted, wantActive)
		}
	}
	assertRoutedToOwner(t, s, all)
	assertDrainsClean(t, s)
}
