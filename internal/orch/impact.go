package orch

import (
	"slices"
	"sort"

	"github.com/alvc/alvc/internal/topology"
)

// ImpactEntry is one deployment inside a resource's blast radius,
// annotated with every role the resource plays for it. Roles are a
// sorted subset of "slice", "host", "path", "standby": a chain whose
// only exposure is "standby" would not lose traffic if the resource
// died — the reconciler would merely replan its anticipation.
type ImpactEntry struct {
	ID    DeploymentID
	Roles []string
}

// NodeImpact returns this shard's active deployments whose footprint
// includes the node, straight from the reverse index (no scan), in no
// particular order; Orchestrator.NodeImpact merges and sorts.
func (o *shard) NodeImpact(node topology.NodeID) []ImpactEntry {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []ImpactEntry
	for id := range o.nodeIndex[node] {
		dep, ok := o.deployments[id]
		if !ok || dep.State != StateActive {
			continue
		}
		var roles []string
		if dep.Slice != nil && dep.Slice.Contains(node) {
			roles = append(roles, "slice")
		}
		if slices.Contains(dep.Placement.Hosts, node) {
			roles = append(roles, "host")
		}
		if slices.Contains(dep.Path, node) {
			roles = append(roles, "path")
		}
		if dep.Standby != nil && slices.Contains(dep.Standby.Path, node) {
			roles = append(roles, "standby")
		}
		if len(roles) == 0 {
			continue // stale index window; nothing to report
		}
		sort.Strings(roles)
		out = append(out, ImpactEntry{ID: id, Roles: roles})
	}
	return out
}

// LinkImpact is the link variant of NodeImpact: this shard's active
// deployments whose primary or standby path crosses the link, from the
// reverse link index and the per-deployment link caches.
func (o *shard) LinkImpact(link topology.LinkID) []ImpactEntry {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []ImpactEntry
	for id := range o.linkIndex[link] {
		dep, ok := o.deployments[id]
		if !ok || dep.State != StateActive {
			continue
		}
		var roles []string
		if slices.Contains(dep.primaryLinks, link) {
			roles = append(roles, "path")
		}
		if dep.Standby != nil && slices.Contains(dep.Standby.Links, link) {
			roles = append(roles, "standby")
		}
		if len(roles) == 0 {
			continue
		}
		out = append(out, ImpactEntry{ID: id, Roles: roles})
	}
	return out
}
