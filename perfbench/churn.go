package main

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/server"
)

// churnDefaults sizes the open loop well below the server's saturation
// (several hundred provision+delete cycles/s at two connections): 48
// arrivals/s, each held 1.25 s on average, so about 60 chains stay
// resident on the 128-OPS core and a 25-s run makes some 1,200
// provisions, enough for a p99 with ten samples beyond it.
var churnDefaults = churnParams{
	rate:    48,
	hold:    1250 * time.Millisecond,
	period:  500 * time.Millisecond,
	tenants: 50,
	maxNFs:  4,
}

// churnTopology is the server's default fabric with a wide core: one
// AL claims at least one OPS, so the default 24-OPS core would cap the
// fleet near 24 chains.
func churnTopology() alvc.TopologyConfig {
	cfg := serverTopology()
	cfg.OPSCount = 128
	cfg.ToRUplinks = 128
	return cfg
}

// churnWarmup is the number of closed-loop provision+delete cycles the
// set-up runs after the resident fleet is up, so routing snapshots and
// caches are warm before the open loop starts.
const churnWarmup = 40

// churn is the open-loop tenant workload: Poisson chain arrivals with
// exponential holds, each chain read back once, and a periodic scrape
// of /metrics and GET /v1/chains.
type churn struct {
	seed   int64
	length time.Duration
	traced bool
	plan   churnPlan
	p      *plane
	m      *measurement
	// ids[i] is chain i's deployment ID (0 when its provision failed);
	// ready[i] closes once ids[i] is known; read[i] closes once chain i's
	// read-back is done (at once for chains without one), so a short
	// hold cannot delete a chain before it is read; deleted[i] marks
	// chains the schedule deleted.
	ids     []alvc.DeploymentID
	ready   []chan struct{}
	read    []chan struct{}
	deleted []bool
}

func newChurn(seed int64, length time.Duration, traced bool) *churn {
	params := churnDefaults
	params.length = length
	return &churn{seed: seed, length: length, traced: traced, plan: planChurn(seed, params)}
}

func (c *churn) setup() error {
	p, err := startPlane(planeConfig{topo: churnTopology(), seed: c.seed, traced: c.traced})
	if err != nil {
		return err
	}
	c.p = p
	n := len(c.plan.specs)
	c.ids, c.deleted = make([]alvc.DeploymentID, n), make([]bool, n)
	c.ready, c.read = make([]chan struct{}, n), make([]chan struct{}, n)
	for i := range c.ready {
		c.ready[i], c.read[i] = make(chan struct{}), make(chan struct{})
	}
	hasRead := make([]bool, n)
	for _, op := range c.plan.ops {
		if op.kind == opGet {
			hasRead[op.chain] = true
		}
	}
	for i, r := range hasRead {
		if !r {
			close(c.read[i])
		}
	}
	res, err := provisionBatch(p, c.plan.specs[:c.plan.resident], 16)
	if err != nil {
		return fmt.Errorf("churn resident fleet: %w", err)
	}
	for i, id := range res {
		c.ids[i] = id
		close(c.ready[i])
	}
	mix := newSpecMix(churnDefaults.tenants, churnDefaults.maxNFs)
	rng := newRand(c.seed ^ 0x5eed)
	for i := 0; i < churnWarmup; i++ {
		r := p.call(http.MethodPost, "/v1/chains", mix.draw(rng, "warm-"+strconv.Itoa(i)))
		var dep server.DeploymentJSON
		if r.decode(&dep) == nil {
			p.call(http.MethodDelete, "/v1/chains/"+strconv.Itoa(dep.ID), nil)
		}
	}
	if _, _, err := p.listChains(); err != nil {
		return err
	}
	return nil
}

func (c *churn) measure() error {
	c.m = newMeasurement(c.p, c.length)
	if err := c.m.begin(); err != nil {
		return err
	}
	work := make(chan churnOp)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range work {
				due := start.Add(op.due)
				c.m.late.addDur(time.Since(due))
				c.do(op, due)
			}
		}()
	}
	for _, op := range c.plan.ops {
		time.Sleep(time.Until(start.Add(op.due)))
		work <- op
	}
	close(work)
	wg.Wait()
	c.m.ops = c.m.work
	// On the open loop the rate is chains admitted per second of the
	// phase: it falls below the offered rate only when provisions are
	// refused or fall behind.
	c.m.workTime = c.length
	return c.m.end()
}

// do runs one scheduled request and times it from when it was due.
func (c *churn) do(op churnOp, due time.Time) {
	m := c.m
	if op.kind == opGet {
		defer close(c.read[op.chain])
	}
	if op.chain >= 0 && op.kind != opProvision {
		<-c.ready[op.chain]
		if c.ids[op.chain] == 0 {
			return // never admitted: nothing to read or delete
		}
	}
	if op.kind == opDelete {
		<-c.read[op.chain]
	}
	switch op.kind {
	case opProvision:
		defer close(c.ready[op.chain])
		r := c.p.call(http.MethodPost, "/v1/chains", c.plan.specs[op.chain])
		for try := 0; r.cause() == causeCapacity; try++ {
			m.conflicts.Add(1)
			if try == capacityRetries {
				break
			}
			r = c.p.call(http.MethodPost, "/v1/chains", c.plan.specs[op.chain])
		}
		if !m.record(latPrimary, r, time.Since(due)) {
			return
		}
		var dep server.DeploymentJSON
		if err := r.decode(&dep); err != nil {
			m.violate("provision reply: %v", err)
			return
		}
		m.checkDeployment(&dep)
		m.observe(&dep)
		m.protection(&dep)
		c.ids[op.chain] = alvc.DeploymentID(dep.ID)
		m.addWork(1, 0)
	case opGet:
		r := c.p.call(http.MethodGet, "/v1/chains/"+strconv.Itoa(int(c.ids[op.chain])), nil)
		if m.record(latRead, r, time.Since(due)) {
			var dep server.DeploymentJSON
			if err := r.decode(&dep); err != nil || dep.ID != int(c.ids[op.chain]) || dep.State != "active" {
				m.violate("read-back of chain %d: got id %d state %q (%v)", c.ids[op.chain], dep.ID, dep.State, err)
			}
		}
	case opDelete:
		r := c.p.call(http.MethodDelete, "/v1/chains/"+strconv.Itoa(int(c.ids[op.chain])), nil)
		if m.record(latSecondary, r, time.Since(due)) {
			c.deleted[op.chain] = true
		}
	case opScrape:
		r := c.p.call(http.MethodGet, "/metrics", nil)
		m.record(latRead, r, time.Since(due))
	case opList:
		r := c.p.call(http.MethodGet, "/v1/chains", nil)
		m.record(latRead, r, time.Since(due))
	}
}

// finish counts the retained deployment records, deletes the chains
// still resident and checks that the fleet is clean.
func (c *churn) finish() error {
	list, _, err := c.p.listChains()
	if err != nil {
		return err
	}
	c.m.extra["orch.deployments_retained"] = float64(len(list))
	for i, id := range c.ids {
		if id != 0 && !c.deleted[i] {
			if r := c.p.call(http.MethodDelete, "/v1/chains/"+strconv.Itoa(int(id)), nil); !r.ok() {
				c.m.violate("end-of-run delete of chain %d: status %d", id, r.status)
			}
		}
	}
	c.m.checkQuiescent("end of churn")
	return nil
}

func (c *churn) stop() { c.p.stop() }

func (c *churn) measured() *measurement { return c.m }

func (c *churn) plane() *plane { return c.p }

// provisionBatch admits a set-up fleet through POST /v1/chains:batch in
// batches of size and returns each spec's deployment ID (0 for a
// refused spec). It asks for one batch worker: two concurrent workers
// can both place on the same nearly full router (a known race the
// measured phases keep visible), and a set-up fleet must be whole.
func provisionBatch(p *plane, specs []wireSpec, size int) ([]alvc.DeploymentID, error) {
	ids := make([]alvc.DeploymentID, len(specs))
	for lo := 0; lo < len(specs); lo += size {
		hi := min(lo+size, len(specs))
		r := p.call(http.MethodPost, "/v1/chains:batch", batchBody{Specs: specs[lo:hi], Workers: 1})
		var resp server.BatchResponse
		if err := r.decode(&resp); err != nil {
			return nil, fmt.Errorf("batch provision: status %d: %v", r.status, err)
		}
		for _, it := range resp.Results {
			if it.Deployment != nil {
				ids[lo+it.Index] = alvc.DeploymentID(it.Deployment.ID)
			}
		}
	}
	return ids, nil
}

// batchBody is the POST /v1/chains:batch request; Workers 0 leaves the
// server's default pool.
type batchBody struct {
	Specs   []wireSpec `json:"specs"`
	Workers int        `json:"workers,omitempty"`
}
