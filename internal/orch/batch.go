package orch

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/alvc/alvc/internal/chain"
)

// BatchResult is the outcome of one spec in a ProvisionBatch call.
// Exactly one of Deployment and Err is set.
type BatchResult struct {
	// Index is the spec's position in the submitted batch.
	Index int
	// Deployment is the provisioned chain on success.
	Deployment *Deployment
	// Err is the provisioning failure, nil on success.
	Err error
}

// DefaultBatchWorkers is the worker-pool size ProvisionBatch uses when
// the caller passes workers <= 0.
func DefaultBatchWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	return n
}

// runPool runs fn(i) for every i in [0, n) over a bounded worker pool
// and blocks until all calls return. It is the pool shape shared by
// batch provisioning and failure reconciliation; workers <= 0 selects
// DefaultBatchWorkers.
func runPool(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultBatchWorkers()
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// ProvisionBatch provisions independent chain specs concurrently over a
// bounded worker pool and returns one result per spec, in input order.
// Individual failures do not abort the batch: each failed spec is
// rolled back exactly as a lone Provision would be, and reported in its
// BatchResult. Specs that collide on flow key (tenant/name) with each
// other are rejected up front — a batch must not race against itself
// for the same SDN flow table entry; cross-request duplicates are
// caught by the owning shard (same key → same shard, always).
//
// The pool is bounded by workers (DefaultBatchWorkers when <= 0): the
// per-deployment state stays guarded by the shards' locks, so
// correctness does not depend on the pool size, only contention does.
func (o *Orchestrator) ProvisionBatch(specs []chain.Spec, workers int) []BatchResult {
	results := make([]BatchResult, len(specs))
	if len(specs) == 0 {
		return results
	}

	// Reject intra-batch flow-key duplicates before spawning workers;
	// everything else (validation, capacity) is reported per item by
	// Provision itself.
	seen := make(map[string]int, len(specs))
	dup := make(map[int]int, 0)
	for i, spec := range specs {
		key := spec.Tenant + "/" + spec.Name
		if first, ok := seen[key]; ok {
			dup[i] = first
			continue
		}
		seen[key] = i
	}

	runPool(len(specs), workers, func(i int) {
		if first, ok := dup[i]; ok {
			results[i] = BatchResult{Index: i, Err: fmt.Errorf(
				"orch: batch: spec %d duplicates flow key %q of spec %d",
				i, specs[i].Tenant+"/"+specs[i].Name, first)}
			return
		}
		dep, err := o.Provision(specs[i])
		results[i] = BatchResult{Index: i, Deployment: dep, Err: err}
	})
	return results
}
