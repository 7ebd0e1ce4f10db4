package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/server"
	"github.com/alvc/alvc/internal/topology"
)

// Storm sizing: a protected fleet of stormFleet chains on 4 shards, its
// ToR-OPS links dealt into SRLG trays of stormTray links; each storm
// cuts 1..stormMaxTrays trays.
const (
	stormFleet    = 24
	stormTray     = 4
	stormMaxTrays = 3
	stormShards   = 4
	// stormFleetSeed draws the fleet's specs.
	stormFleetSeed = 1
	// stormWarmup storms run untimed in set-up.
	stormWarmup = 20
	// stormScrapeEvery storms the generator scrapes /metrics once, as a
	// monitoring system would.
	stormScrapeEvery = 8
)

// stormTopology is the wide-core server fabric with every PM
// dual-homed, so every chain can hold a disjoint standby.
func stormTopology() alvc.TopologyConfig {
	cfg := churnTopology()
	cfg.DualHomeFrac = 1.0
	return cfg
}

// storm is the closed-loop failure workload: each cycle cuts seeded
// SRLG trays under current primary and standby paths in one
// POST /v1/failures:batch, drains the re-protection work, recovers the
// links and drains the refresh work.
type storm struct {
	seed   int64
	length time.Duration
	traced bool
	rng    *rand.Rand
	p      *plane
	m      *measurement
	ids    []int
}

func newStorm(seed int64, length time.Duration, traced bool) *storm {
	return &storm{seed: seed, length: length, traced: traced, rng: newRand(seed)}
}

func (s *storm) setup() error {
	p, err := startPlane(planeConfig{topo: stormTopology(), seed: stormFleetSeed, traced: s.traced, traySize: stormTray,
		opts: []alvc.Option{alvc.WithShards(stormShards)}})
	if err != nil {
		return err
	}
	s.p = p
	// The fleet is part of the workload's fixed configuration, like the
	// topology: the seed drives which trays each storm cuts. With a
	// seed-drawn 24-chain fleet, fleet composition alone moved storm
	// cost by a third between seeds.
	mix, fleetRng := newSpecMix(churnDefaults.tenants, churnDefaults.maxNFs), newRand(stormFleetSeed)
	specs := make([]wireSpec, stormFleet)
	for i := range specs {
		specs[i] = mix.draw(fleetRng, "storm-"+strconv.Itoa(i))
	}
	ids, err := provisionBatch(p, specs, 16)
	if err != nil {
		return err
	}
	for i, id := range ids {
		if id == 0 {
			return fmt.Errorf("fleet chain %d refused", i)
		}
		s.ids = append(s.ids, int(id))
	}
	if r := p.call(http.MethodPost, "/v1/optimizer/pause", nil); !r.ok() {
		return fmt.Errorf("pause optimizer: status %d: %v", r.status, r.err)
	}
	if r := p.call(http.MethodPost, "/v1/optimizer:run", nil); !r.ok() {
		return fmt.Errorf("drain optimizer: status %d: %v", r.status, r.err)
	}
	s.m = newMeasurement(p, s.length)
	for i := 0; i < stormWarmup; i++ {
		if err := s.cycle(); err != nil {
			return fmt.Errorf("warm-up storm: %w", err)
		}
	}
	if len(s.m.violations) > 0 {
		return fmt.Errorf("warm-up storms: %v", s.m.violations)
	}
	return nil
}

func (s *storm) measure() error {
	s.m = newMeasurement(s.p, s.length)
	if err := s.m.begin(); err != nil {
		return err
	}
	start := time.Now()
	deadline := start.Add(s.length)
	for time.Now().Before(deadline) {
		if err := s.cycle(); err != nil {
			return err
		}
	}
	// The storm rate is whole cycles (failure batch, re-protection,
	// recovery, refresh) per second of the phase. Chains repaired per
	// second of repair time would follow how many chains the seeded cuts
	// happen to hit, not how fast the control plane handles them.
	s.m.work, s.m.workTime = s.m.storms, time.Since(start)
	s.m.ops = s.m.storms
	if err := s.m.end(); err != nil {
		return err
	}
	s.m.extra["storm.unprotected_ratio"] = 1 - ratio(float64(s.m.protected), float64(s.m.protChains))
	return nil
}

// list reads GET /v1/chains as one timed read.
func (s *storm) list() ([]server.DeploymentJSON, bool) {
	list, r, err := s.p.listChains()
	if !s.m.record(latRead, r, r.rtt) {
		return nil, false
	}
	if err != nil {
		s.m.violate("list chains: %v", err)
		return nil, false
	}
	return list, true
}

// cycle runs one storm: pick trays from the current paths, fail them,
// drain re-protection, recover, drain refresh. A refused request is
// counted and the cycle goes on; only a broken transport is an error.
func (s *storm) cycle() error {
	m := s.m
	list, ok := s.list()
	if !ok {
		return nil
	}
	active := list[:0]
	for i := range list {
		if list[i].State == "active" {
			active = append(active, list[i])
			m.observe(&list[i])
		}
	}
	if len(active) == 0 {
		return fmt.Errorf("no active chain left to storm")
	}
	links, victims := s.pickTrays(active)
	buildsBefore := s.p.topo.GraphBuilds()

	r, err := s.step(latPrimary, http.MethodPost, "/v1/failures:batch", server.BatchFailureRequest{Links: links})
	if err != nil {
		return err
	}
	if r.ok() {
		var resp server.FailureResponse
		if err := r.decode(&resp); err != nil {
			m.violate("failures:batch reply: %v", err)
		}
		s.checkReports(resp, victims)
	}
	if _, err := s.step(latSecondary, http.MethodPost, "/v1/optimizer:run", nil); err != nil {
		return err
	}
	if after, ok := s.list(); ok {
		for i := range after {
			if after[i].State == "active" {
				m.protection(&after[i])
			}
		}
	}
	for _, l := range links {
		if _, err := s.step(latOther, http.MethodDelete, "/v1/failures/links/"+strconv.Itoa(int(l)), nil); err != nil {
			return err
		}
	}
	if _, err := s.step(latOther, http.MethodPost, "/v1/optimizer:run", nil); err != nil {
		return err
	}
	if builds := s.p.topo.GraphBuilds() - buildsBefore; builds != 0 {
		m.violate("storm %d: %d routing-graph builds", m.storms, builds)
	}
	m.storms++
	if m.storms%stormScrapeEvery == 0 {
		if _, err := s.step(latRead, http.MethodGet, "/metrics", nil); err != nil {
			return err
		}
	}
	return nil
}

// step sends one timed request of the cycle. Only a broken transport
// is returned as an error; any other failure is counted by its cause.
func (s *storm) step(family, method, path string, body any) (reply, error) {
	r := s.p.call(method, path, body)
	s.m.record(family, r, r.rtt)
	if r.err != nil {
		return r, fmt.Errorf("%s %s: %w", method, path, r.err)
	}
	return r, nil
}

// pickTrays draws 1..stormMaxTrays distinct trays, each under a link of
// a seeded chain's current primary or standby path, and returns the
// union of their links and the chains whose primary or standby crosses
// one of them.
func (s *storm) pickTrays(active []server.DeploymentJSON) ([]topology.LinkID, map[int]bool) {
	want := 1 + s.rng.Intn(stormMaxTrays)
	picked := map[int]bool{}
	var links []topology.LinkID
	for tries := 0; len(picked) < want && tries < 16*want; tries++ {
		dep := &active[s.rng.Intn(len(active))]
		path := dep.Path
		if dep.Standby != nil && s.rng.Intn(2) == 1 {
			path = dep.Standby.Path
		}
		var trays []int
		for i := 0; i+1 < len(path); i++ {
			if l := s.p.topo.LinkBetween(path[i], path[i+1]); l != nil {
				if t, ok := s.p.trayOf[l.ID]; ok {
					trays = append(trays, t)
				}
			}
		}
		if len(trays) == 0 {
			continue
		}
		t := trays[s.rng.Intn(len(trays))]
		if !picked[t] {
			picked[t] = true
			links = append(links, s.p.trays[t]...)
		}
	}
	down := make(map[topology.LinkID]bool, len(links))
	for _, l := range links {
		down[l] = true
	}
	victims := map[int]bool{}
	for _, dep := range active {
		if s.crosses(dep.Path, down) || dep.Standby != nil && s.crosses(dep.Standby.Path, down) {
			victims[dep.ID] = true
		}
	}
	return links, victims
}

func (s *storm) crosses(path []topology.NodeID, down map[topology.LinkID]bool) bool {
	for i := 0; i+1 < len(path); i++ {
		if l := s.p.topo.LinkBetween(path[i], path[i+1]); l != nil && down[l.ID] {
			return true
		}
	}
	return false
}

// checkReports verifies a storm's repair reports: every victim reported
// exactly once and no repair failed.
func (s *storm) checkReports(resp server.FailureResponse, victims map[int]bool) {
	seen := map[int]int{}
	for _, rep := range resp.Reports {
		seen[rep.ID]++
		if rep.Action == "failed" {
			s.m.violate("storm %d: chain %d repair failed: %s", s.m.storms, rep.ID, rep.Error)
		}
	}
	for id, n := range seen {
		if n > 1 {
			s.m.violate("storm %d: chain %d reported %d times", s.m.storms, id, n)
		}
	}
	for id := range victims {
		if seen[id] == 0 {
			s.m.violate("storm %d: victim chain %d not reported", s.m.storms, id)
		}
	}
}

// finish deletes the fleet and checks it is clean.
func (s *storm) finish() error {
	list, _, err := s.p.listChains()
	if err != nil {
		return err
	}
	s.m.extra["orch.deployments_retained"] = float64(len(list))
	for _, id := range s.ids {
		if r := s.p.call(http.MethodDelete, "/v1/chains/"+strconv.Itoa(id), nil); !r.ok() {
			s.m.violate("end-of-run delete of chain %d: status %d", id, r.status)
		}
	}
	s.m.checkQuiescent("end of storm")
	return nil
}

func (s *storm) stop() { s.p.stop() }

func (s *storm) measured() *measurement { return s.m }

func (s *storm) plane() *plane { return s.p }
