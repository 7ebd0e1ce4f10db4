package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/server"
)

// Onboard sizing: each cycle fills the fabric to onboardFleet chains in
// POST /v1/chains:batch requests of onboardBatch specs, then deletes
// the fleet. The fleet size is one the parent commit admits without
// blocking on every seed tried.
const (
	onboardFleet       = 64
	onboardBatch       = 8
	onboardShards      = 4
	onboardWavelengths = 16
)

// onboardTopology is the wide-core server fabric onboard fills.
func onboardTopology() alvc.TopologyConfig { return churnTopology() }

// onboard is the closed-loop batch workload: one caller fills a
// 4-shard WDM fabric batch by batch, reads each admitted chain back,
// then deletes the fleet and starts over.
type onboard struct {
	seed   int64
	length time.Duration
	traced bool
	rng    *rand.Rand
	mix    specMix
	cycle  int
	p      *plane
	m      *measurement
	// live lists the deployment IDs of the current fill.
	live []int
	// full sums, over completed fills, the pool-free ratio and the mean
	// wavelength occupancy read at full occupancy.
	fills, poolFree, lambda float64
}

func newOnboard(seed int64, length time.Duration, traced bool) *onboard {
	return &onboard{seed: seed, length: length, traced: traced,
		rng: newRand(seed), mix: newSpecMix(churnDefaults.tenants, churnDefaults.maxNFs)}
}

// nextFill draws the specs of the next fill.
func (o *onboard) nextFill() []wireSpec {
	specs := make([]wireSpec, onboardFleet)
	for i := range specs {
		specs[i] = o.mix.draw(o.rng, "ob-"+strconv.Itoa(o.cycle)+"-"+strconv.Itoa(i))
	}
	o.cycle++
	return specs
}

func (o *onboard) setup() error {
	p, err := startPlane(planeConfig{topo: onboardTopology(), seed: o.seed, traced: o.traced,
		opts: []alvc.Option{alvc.WithShards(onboardShards), alvc.WithWavelengths(onboardWavelengths)}})
	if err != nil {
		return err
	}
	o.p = p
	// One untimed fill and teardown warms snapshots and caches.
	warm := newMeasurement(p, o.length)
	o.m = warm
	o.fill(o.nextFill(), time.Time{})
	o.deleteAll()
	warm.checkQuiescent("after warm-up")
	// Refused specs are tolerated here; only broken outputs stop.
	if len(warm.violations) > 0 {
		return fmt.Errorf("warm-up fill: %v", warm.violations)
	}
	return nil
}

func (o *onboard) measure() error {
	o.m = newMeasurement(o.p, o.length)
	if err := o.m.begin(); err != nil {
		return err
	}
	deadline := time.Now().Add(o.length)
	for time.Now().Before(deadline) {
		if !o.fill(o.nextFill(), deadline) {
			break
		}
		o.full()
		o.deleteAll()
		o.m.checkQuiescent("after onboard delete-all")
	}
	o.m.ops = o.m.work
	if err := o.m.end(); err != nil {
		return err
	}
	o.m.extra["cluster.pool_free_ratio"] = ratio(o.poolFree, o.fills)
	o.m.extra["optical.lambda_occupancy"] = ratio(o.lambda, o.fills)
	return nil
}

// fill admits specs batch by batch and reads every admitted chain back.
// It reports false when the deadline passed before the fill completed.
func (o *onboard) fill(specs []wireSpec, deadline time.Time) bool {
	for lo := 0; lo < len(specs); lo += onboardBatch {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		for _, dep := range o.batch(specs[lo:min(lo+onboardBatch, len(specs))]) {
			o.live = append(o.live, dep.ID)
			o.readBack(dep)
		}
	}
	return true
}

// batch admits one batch of specs through POST /v1/chains:batch and
// returns the admitted chains. Specs refused with 409 insufficient
// capacity go out again in a follow-up batch, up to capacityRetries
// times; the batch's latency is the sum of its requests' round trips.
// Each spec is one attempted operation and, when it is not admitted in
// the end, one failed operation under its cause.
func (o *onboard) batch(specs []wireSpec) []*server.DeploymentJSON {
	m := o.m
	m.attempted.Add(int64(len(specs)))
	var (
		admitted []*server.DeploymentJSON
		took     time.Duration
	)
	for try := 0; len(specs) > 0; try++ {
		r := o.p.call(http.MethodPost, "/v1/chains:batch", batchBody{Specs: specs})
		took += r.rtt
		if c := r.cause(); c != "" {
			m.failed[c].Add(int64(len(specs)))
			m.lat[latPrimary].addDur(m.length)
			return admitted
		}
		var resp server.BatchResponse
		if err := r.decode(&resp); err != nil {
			m.violate("batch reply: %v", err)
			return admitted
		}
		var refused []wireSpec
		for _, it := range resp.Results {
			dep := it.Deployment
			if dep == nil {
				c := itemCause(it.Error)
				if c == causeCapacity {
					m.conflicts.Add(1)
					if try < capacityRetries {
						refused = append(refused, specs[it.Index])
						continue
					}
				}
				m.failed[c].Add(1)
				continue
			}
			m.checkDeployment(dep)
			m.observe(dep)
			m.protection(dep)
			admitted = append(admitted, dep)
		}
		specs = refused
	}
	m.lat[latPrimary].addDur(took)
	m.addWork(len(admitted), took)
	return admitted
}

// itemCause classifies a refused spec of a batch by its error text.
func itemCause(msg string) string {
	if strings.Contains(msg, "insufficient capacity") {
		return causeCapacity
	}
	return causeConflict
}

// readBack fetches an admitted chain and checks it matches the batch
// reply.
func (o *onboard) readBack(want *server.DeploymentJSON) {
	r := o.p.call(http.MethodGet, "/v1/chains/"+strconv.Itoa(want.ID), nil)
	if !o.m.record(latRead, r, r.rtt) {
		return
	}
	var got server.DeploymentJSON
	if err := r.decode(&got); err != nil || got.ID != want.ID || !slices.Equal(got.Path, want.Path) {
		o.m.violate("read-back of chain %d differs from its batch reply (%v)", want.ID, err)
	}
}

// full records the pool-free ratio and wavelength occupancy of a
// completed fill.
func (o *onboard) full() {
	sh := o.p.arch.Sharded()
	var free, pool int
	for i := 0; i < sh.Shards(); i++ {
		a := sh.Shard(i).Allocator()
		free += len(a.AvailableOPS())
		pool += len(a.Pool())
	}
	s, r, err := o.p.scrape()
	o.m.record(latRead, r, r.rtt)
	if err != nil {
		o.m.violate("scrape at full occupancy: %v", err)
		return
	}
	o.fills++
	o.poolFree += ratio(float64(free), float64(pool))
	o.lambda += ratio(s.sum("alvc_optical_lambda_occupancy_ratio_sum"), s.sum("alvc_optical_lambda_occupancy_ratio_count"))
}

// deleteAll deletes the current fill chain by chain.
func (o *onboard) deleteAll() {
	for _, id := range o.live {
		r := o.p.call(http.MethodDelete, "/v1/chains/"+strconv.Itoa(id), nil)
		o.m.record(latSecondary, r, r.rtt)
	}
	o.live = o.live[:0]
}

// finish deletes a fill the deadline cut short and checks the fleet is
// clean.
func (o *onboard) finish() error {
	list, _, err := o.p.listChains()
	if err != nil {
		return err
	}
	o.m.extra["orch.deployments_retained"] = float64(len(list))
	for _, id := range o.live {
		if r := o.p.call(http.MethodDelete, "/v1/chains/"+strconv.Itoa(id), nil); !r.ok() {
			o.m.violate("end-of-run delete of chain %d: status %d", id, r.status)
		}
	}
	o.live = nil
	o.m.checkQuiescent("end of onboard")
	return nil
}

func (o *onboard) stop() { o.p.stop() }

func (o *onboard) measured() *measurement { return o.m }

func (o *onboard) plane() *plane { return o.p }
