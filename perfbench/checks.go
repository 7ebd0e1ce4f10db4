package main

import (
	"fmt"

	"github.com/alvc/alvc/internal/server"
	"github.com/alvc/alvc/internal/topology"
)

// checkDeployment verifies one admitted chain from its wire form: a
// non-empty path from a VM of the chain's service to another, passing
// every NF host, and a non-empty optical slice.
func (m *measurement) checkDeployment(dep *server.DeploymentJSON) {
	if err := validDeployment(m.p.topo, dep); err != nil {
		m.violate("chain %d (%s): %v", dep.ID, dep.Name, err)
	}
}

func validDeployment(topo *topology.Topology, dep *server.DeploymentJSON) error {
	if len(dep.Path) == 0 {
		return fmt.Errorf("empty path")
	}
	if len(dep.SliceOPSs) == 0 {
		return fmt.Errorf("empty slice_opss")
	}
	for _, end := range []topology.NodeID{dep.Path[0], dep.Path[len(dep.Path)-1]} {
		n := topo.Node(end)
		if n == nil || n.Kind != topology.KindVM || n.Service != dep.Service {
			return fmt.Errorf("path endpoint %d is not a %s VM", end, dep.Service)
		}
	}
	onPath := make(map[topology.NodeID]bool, len(dep.Path))
	for _, n := range dep.Path {
		onPath[n] = true
	}
	for _, h := range dep.Hosts {
		if !onPath[h] {
			return fmt.Errorf("host %d is off the path", h)
		}
	}
	return nil
}

// checkQuiescent verifies a fleet with no chain left: no installed SDN
// rule, every shard's OPS pool fully free again and no WDM flow left.
func (m *measurement) checkQuiescent(when string) {
	s, _, err := m.p.scrape()
	if err != nil {
		m.violate("%s: %v", when, err)
		return
	}
	if rules := s.sum("alvc_sdn_installed_rules"); rules != 0 {
		m.violate("%s: %v SDN rules installed with no chain resident", when, rules)
	}
	sh := m.p.arch.Sharded()
	for i := 0; i < sh.Shards(); i++ {
		o := sh.Shard(i)
		pool, free := o.Allocator().Pool(), o.Allocator().AvailableOPS()
		if len(pool) == 0 {
			// An unsharded allocator has no pool restriction: every OPS.
			pool = map[topology.NodeID]bool{}
			for _, n := range m.p.topo.Nodes(topology.KindOPS) {
				pool[n.ID] = true
			}
		}
		if len(pool) != len(free) {
			m.violate("%s: shard %d has %d of %d pool OPSs free", when, i, len(free), len(pool))
		} else {
			for id := range pool {
				if !free[id] {
					m.violate("%s: shard %d pool OPS %d still allocated", when, i, id)
					break
				}
			}
		}
		if w := o.WDM(); w != nil {
			if flows := w.Flows(); len(flows) != 0 {
				m.violate("%s: shard %d keeps %d WDM flows", when, i, len(flows))
			}
		}
	}
}
