package ccn

import (
	"fmt"

	"ccncoord/internal/topology"
)

// NodeStats is a per-router snapshot of data-plane activity, useful for
// debugging placements and for the coordination protocol's enforcement
// checks.
type NodeStats struct {
	Router topology.NodeID `json:"router"`
	// CSHits counts content-store hits at interest arrival.
	CSHits int64 `json:"cs_hits"`
	// CSMisses counts interests that missed the content store.
	CSMisses int64 `json:"cs_misses"`
	// Aggregated counts interests collapsed into an existing PIT entry.
	Aggregated int64 `json:"aggregated"`
	// Forwarded counts interests sent upstream from this router.
	Forwarded int64 `json:"forwarded"`
	// PITPeak is the largest number of simultaneously pending distinct
	// contents observed.
	PITPeak int `json:"pit_peak"`
	// PITPending is the current number of pending distinct contents.
	PITPending int `json:"pit_pending"`
}

// HitRatio returns CSHits / (CSHits + CSMisses), or 0 with no traffic.
func (s NodeStats) HitRatio() float64 {
	total := s.CSHits + s.CSMisses
	if total == 0 {
		return 0
	}
	return float64(s.CSHits) / float64(total)
}

// Stats returns the activity snapshot of one router.
func (n *Network) Stats(id topology.NodeID) (NodeStats, error) {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		return NodeStats{}, fmt.Errorf("ccn: unknown router %d", id)
	}
	nd := n.nodes[id]
	return NodeStats{
		Router:     id,
		CSHits:     nd.csHits,
		CSMisses:   nd.csMisses,
		Aggregated: nd.aggregated,
		Forwarded:  nd.forwarded,
		PITPeak:    nd.pitPeak,
		PITPending: len(nd.pit),
	}, nil
}

// AllStats returns every router's snapshot in ID order.
func (n *Network) AllStats() []NodeStats {
	out := make([]NodeStats, 0, len(n.nodes))
	for _, nd := range n.nodes {
		out = append(out, NodeStats{
			Router:     nd.id,
			CSHits:     nd.csHits,
			CSMisses:   nd.csMisses,
			Aggregated: nd.aggregated,
			Forwarded:  nd.forwarded,
			PITPeak:    nd.pitPeak,
			PITPending: len(nd.pit),
		})
	}
	return out
}

// StatsTotals is the network-wide sum of per-router activity, the
// aggregate a run manifest records next to the per-router snapshots.
type StatsTotals struct {
	CSHits     int64 `json:"cs_hits"`
	CSMisses   int64 `json:"cs_misses"`
	Aggregated int64 `json:"aggregated"`
	Forwarded  int64 `json:"forwarded"`
}

// SumStats totals the given per-router snapshots.
func SumStats(all []NodeStats) StatsTotals {
	var t StatsTotals
	for _, s := range all {
		t.CSHits += s.CSHits
		t.CSMisses += s.CSMisses
		t.Aggregated += s.Aggregated
		t.Forwarded += s.Forwarded
	}
	return t
}

// FailLink removes the link between a and b and recomputes all routes.
// It fails (leaving the network unchanged) if the link does not exist or
// if removing it would disconnect the domain — a disconnected CCN domain
// cannot satisfy the model's assumptions, so the caller must handle
// partition scenarios explicitly.
func (n *Network) FailLink(a, b topology.NodeID) error {
	if !n.graph.HasEdge(a, b) {
		return fmt.Errorf("ccn: no link %d-%d to fail", a, b)
	}
	for _, nd := range n.nodes {
		if len(nd.pit) > 0 {
			return fmt.Errorf("ccn: cannot fail links with %d interests pending at router %d", len(nd.pit), nd.id)
		}
	}
	trial := n.graph.Clone()
	if err := trial.RemoveEdge(a, b); err != nil {
		return fmt.Errorf("ccn: failing link %d-%d: %w", a, b, err)
	}
	if !trial.Connected() {
		return fmt.Errorf("ccn: failing link %d-%d would disconnect the domain", a, b)
	}
	n.graph = trial
	if n.faultRoutes != nil {
		// The fault-aware table carries the outages still active
		// onto the new graph.
		n.faultRoutes = n.faultRoutes.Reroute(trial)
		n.lat = n.faultRoutes
		return nil
	}
	n.lat = trial.ShortestPathsLatency()
	return nil
}
