package orch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/alvc/alvc/internal/chain"
	"github.com/alvc/alvc/internal/trace"
)

// TestConcurrentProvisionDelete hammers the orchestrator from multiple
// goroutines. Some provisions legitimately fail when the OPS pool runs
// dry; the invariants are no panics, no double allocation, and a clean
// final state. Run with -race.
func TestConcurrentProvisionDelete(t *testing.T) {
	o := newOrch(t)
	services := []string{"web", "mapreduce", "sns"}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				spec, err := chain.Linear(
					fmt.Sprintf("c-%d-%d", g, i),
					fmt.Sprintf("tenant-%d", g),
					services[g%len(services)],
					1, 1<<20, "firewall")
				if err != nil {
					t.Errorf("Linear: %v", err)
					return
				}
				dep, err := o.Provision(spec)
				if err != nil {
					continue // pool exhaustion under contention is fine
				}
				if err := o.Upgrade(dep.ID); err != nil {
					t.Errorf("Upgrade: %v", err)
				}
				if err := o.Delete(dep.ID); err != nil {
					t.Errorf("Delete: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if o.ActiveCount() != 0 {
		t.Fatalf("active deployments leaked: %d", o.ActiveCount())
	}
	if !o.shards[0].Allocator().Disjoint() || !o.Slices().Disjoint() {
		t.Fatal("disjointness violated under concurrency")
	}
	if len(o.Slices().Slices()) != 0 {
		t.Fatal("slices leaked")
	}
}

// TestConcurrentReads exercises the snapshot paths while mutators run.
func TestConcurrentReads(t *testing.T) {
	o := newOrch(t)
	dep, err := o.Provision(webSpec(t, "chain-1"))
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = o.Deployment(dep.ID)
				_ = o.Deployments()
				_ = o.ActiveCount()
				_ = o.shards[0].Controller().RuleCount()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := o.Modify(dep.ID, float64(i+1)); err != nil {
			t.Fatalf("Modify: %v", err)
		}
		if err := o.Upgrade(dep.ID); err != nil {
			t.Fatalf("Upgrade: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestHookSwapDuringProvision swaps the shared instrumentation hooks
// while every shard provisions: the pipeline reads them lock-free, so
// run with -race.
func TestHookSwapDuringProvision(t *testing.T) {
	o := newSharded(t, shardTopo(t, 32), 4, ShardByTenant)
	var stages atomic.Int64
	tr := trace.NewTracer(trace.NewStore(trace.StoreOptions{}))
	mux := NewEventMux()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			o.SetStageObserver(func(string, time.Duration) { stages.Add(1) })
			o.SetTracer(tr)
			o.SetEventSink(mux)
			o.SetDeferReprotect(i%2 == 0)
			o.SetTracer(nil)
			o.SetEventSink(nil)
		}
	}()
	specs := make([]chain.Spec, 16)
	for i := range specs {
		specs[i] = tenantSpec(t, i)
	}
	for _, res := range o.ProvisionBatch(specs, 4) {
		if res.Err != nil {
			t.Fatalf("spec %d: %v", res.Index, res.Err)
		}
	}
	<-done
	o.SetStageObserver(func(string, time.Duration) { stages.Add(1) })
	if _, err := o.Provision(tenantSpec(t, len(specs))); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if stages.Load() == 0 {
		t.Fatal("stage observer never ran")
	}
	assertDrainsClean(t, o)
}
