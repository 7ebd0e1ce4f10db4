package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/workload"
)

// wireNF and wireSpec are the chain-spec wire form the benchmark sends
// to POST /v1/chains and POST /v1/chains:batch. The benchmark builds
// requests from its own types so the program sees nothing but bytes.
type wireNF struct {
	Name string `json:"name"`
}

type wireSpec struct {
	Name          string   `json:"name"`
	Tenant        string   `json:"tenant"`
	Service       string   `json:"service"`
	NFs           []wireNF `json:"nfs"`
	BandwidthGbps float64  `json:"bandwidth_gbps"`
	FlowBytes     int64    `json:"flow_bytes"`
}

// specMix draws chain specs across every catalog service (weighted by
// the catalog's popularity), with 1..maxNFs distinct network functions
// from the full NF catalog and a tenant out of a fixed population.
type specMix struct {
	services []workload.ServiceProfile
	nfs      []string
	tenants  int
	maxNFs   int
}

func newSpecMix(tenants, maxNFs int) specMix {
	return specMix{
		services: workload.DefaultCatalog(),
		nfs:      alvc.NFCatalog(),
		tenants:  tenants,
		maxNFs:   maxNFs,
	}
}

// bandwidths are the per-chain link demands a spec draws from (Gbps).
var bandwidths = []float64{0.5, 1, 2}

func (m specMix) draw(rng *rand.Rand, name string) wireSpec {
	total := 0.0
	for _, s := range m.services {
		total += s.Popularity
	}
	pick := rng.Float64() * total
	svc := m.services[len(m.services)-1]
	for _, s := range m.services {
		if pick < s.Popularity {
			svc = s
			break
		}
		pick -= s.Popularity
	}
	n := 1 + rng.Intn(m.maxNFs)
	perm := rng.Perm(len(m.nfs))[:n]
	nfs := make([]wireNF, n)
	for i, p := range perm {
		nfs[i] = wireNF{Name: m.nfs[p]}
	}
	return wireSpec{
		Name:          name,
		Tenant:        fmt.Sprintf("tenant-%02d", rng.Intn(m.tenants)),
		Service:       svc.Name,
		NFs:           nfs,
		BandwidthGbps: bandwidths[rng.Intn(len(bandwidths))],
		FlowBytes:     int64(svc.MeanFlowBytes),
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// opKind is one request type of the churn schedule.
type opKind int

const (
	opProvision opKind = iota
	opGet
	opDelete
	opScrape
	opList
)

func (k opKind) String() string {
	return [...]string{"provision", "get", "delete", "scrape", "list"}[k]
}

// churnOp is one scheduled request: due is its offset from the start
// of the measured phase, chain indexes the schedule's specs (-1 for the
// periodic scrape and list).
type churnOp struct {
	due   time.Duration
	kind  opKind
	chain int
}

// churnPlan is the open-loop request schedule of one churn run.
type churnPlan struct {
	// specs holds every chain the run provisions: the first resident
	// chains are provisioned during set-up, the rest arrive in the
	// measured phase.
	specs    []wireSpec
	resident int
	ops      []churnOp
}

// churnParams sizes the Erlang traffic: Poisson arrivals at rate
// chains/s, each held an exponential time of mean hold, plus a scrape
// of /metrics and a GET /v1/chains every period.
type churnParams struct {
	rate    float64
	hold    time.Duration
	period  time.Duration
	length  time.Duration
	tenants int
	maxNFs  int
}

// planChurn builds the whole schedule from the seed. The resident fleet
// is the offered load rate*hold, each chain with an exponential
// remaining hold: exponential holds are memoryless, so the fleet starts
// in its stationary state and needs no time-based warm-up.
func planChurn(seed int64, p churnParams) churnPlan {
	rng := newRand(seed)
	mix := newSpecMix(p.tenants, p.maxNFs)
	var plan churnPlan
	exp := func(mean time.Duration) time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(mean))
	}
	plan.resident = int(math.Round(p.rate * p.hold.Seconds()))
	for i := 0; i < plan.resident; i++ {
		plan.specs = append(plan.specs, mix.draw(rng, fmt.Sprintf("res-%d", i)))
		if end := exp(p.hold); end < p.length {
			plan.ops = append(plan.ops, churnOp{due: end, kind: opDelete, chain: i})
		}
	}
	meanGap := time.Duration(float64(time.Second) / p.rate)
	for t := exp(meanGap); t < p.length; t += exp(meanGap) {
		i := len(plan.specs)
		plan.specs = append(plan.specs, mix.draw(rng, fmt.Sprintf("arr-%d", i)))
		hold := exp(p.hold)
		plan.ops = append(plan.ops, churnOp{due: t, kind: opProvision, chain: i})
		if read := t + hold/2; read < p.length {
			plan.ops = append(plan.ops, churnOp{due: read, kind: opGet, chain: i})
		}
		if end := t + hold; end < p.length {
			plan.ops = append(plan.ops, churnOp{due: end, kind: opDelete, chain: i})
		}
	}
	// The scrape and the list are half a period apart, as two
	// independent pollers would be, rather than holding both
	// connections at once.
	for t := p.period; t < p.length; t += p.period {
		plan.ops = append(plan.ops, churnOp{due: t, kind: opScrape, chain: -1})
		if t+p.period/2 < p.length {
			plan.ops = append(plan.ops, churnOp{due: t + p.period/2, kind: opList, chain: -1})
		}
	}
	sort.SliceStable(plan.ops, func(i, j int) bool { return plan.ops[i].due < plan.ops[j].due })
	return plan
}
