package sim

import (
	"fmt"
	"math"

	"ccncoord/internal/cache"
	"ccncoord/internal/catalog"
	"ccncoord/internal/ccn"
	"ccncoord/internal/coord"
	"ccncoord/internal/timeline"
	"ccncoord/internal/topology"
)

// provisioned bundles the policy-dependent wiring shared by the serial
// and sharded run paths: the store factory handed to the data plane,
// the optional redirection directory, and the live coordinated
// assignment plus replicated local band the fault-repair and checkpoint
// machinery mutate.
type provisioned struct {
	directory ccn.Directory
	// coordAsg is the live coordinated assignment (PolicyCoordinated);
	// the failover repair mutates it in place, which also redirects the
	// directory. localSet is the replicated local band, kept for
	// coordinator checkpoints.
	coordAsg *coord.Assignment
	localSet []catalog.ID
	stores   func(topology.NodeID) (cache.Store, error)
	// capOf returns a router's storage capacity (heterogeneous override
	// or the uniform Capacity).
	capOf func(topology.NodeID) int64
}

// provisionPolicy builds the policy's store provisioning and records
// the placement's coordination cost (messages, convergence bound) into
// res. It is shared by the serial and sharded run paths so both install
// bit-identical placements.
func provisionPolicy(sc Scenario, routers []topology.NodeID, res *Result) (provisioned, error) {
	var prov provisioned
	prov.capOf = func(r topology.NodeID) int64 {
		if sc.Capacities != nil {
			return sc.Capacities[r]
		}
		return sc.Capacity
	}
	capOf := prov.capOf
	// coordOf returns router r's coordinated slots, preserving the
	// global split ratio under heterogeneous capacities.
	coordOf := func(r topology.NodeID) int64 {
		if sc.Capacities == nil || sc.Capacity == 0 {
			return sc.Coordinated
		}
		return sc.Coordinated * capOf(r) / sc.Capacity
	}

	switch sc.Policy {
	case PolicyNonCoordinated:
		prov.stores = func(r topology.NodeID) (cache.Store, error) {
			// The non-coordinated steady state is the contiguous top-k
			// band; an interval store avoids materializing it per router.
			return cache.NewStaticRange(1, min(capOf(r), sc.CatalogSize))
		}
	case PolicyCoordinated:
		if sc.Placement != nil {
			// Externally computed provisioning (e.g. the coordination
			// protocol's estimate): install it verbatim.
			p := sc.Placement
			prov.directory = p.Assignment
			prov.coordAsg = p.Assignment
			prov.localSet = p.LocalSet
			res.CoordMessages = 2 * int64(p.Assignment.Size())
			recordInstall(sc, routers, p.Assignment, int64(len(p.LocalSet)), res.CoordMessages)
			prov.stores = func(r topology.NodeID) (cache.Store, error) {
				local, err := cache.NewStatic(p.LocalSet)
				if err != nil {
					return nil, err
				}
				coordPart, err := cache.NewStatic(p.Assignment.Contents(r))
				if err != nil {
					return nil, err
				}
				return cache.NewPartitioned(local, coordPart)
			}
			break
		}
		// The replicated local prefix must be common across routers for
		// the striped band to start at a well-defined rank; use the
		// largest local prefix (matching model.HeteroConfig).
		var maxLocal, totalCoord int64
		quotas := make([]int64, len(routers))
		for i, r := range routers {
			local := capOf(r) - coordOf(r)
			if local > maxLocal {
				maxLocal = local
			}
			quotas[i] = coordOf(r)
			totalCoord += quotas[i]
		}
		band := cache.RankRange(maxLocal+1, min(maxLocal+totalCoord, sc.CatalogSize))
		var asg *coord.Assignment
		var err error
		switch sc.Assignment {
		case AssignHash:
			if sc.Capacities != nil {
				return provisioned{}, fmt.Errorf("sim: hash assignment does not support heterogeneous capacities")
			}
			asg, err = coord.HashByContent(routers, band, sc.Coordinated)
		default:
			asg, err = coord.StripeWeighted(routers, band, quotas)
		}
		if err != nil {
			return provisioned{}, fmt.Errorf("sim: assigning coordinated band: %w", err)
		}
		prov.directory = asg
		prov.coordAsg = asg
		if maxLocal > 0 {
			prov.localSet = cache.RankRange(1, min(maxLocal, sc.CatalogSize))
		}
		// The placement installation costs one state message up and one
		// directive down per coordinated content (the protocol's
		// measured counterpart of W(x) = w*n*x).
		res.CoordMessages = 2 * totalCoord
		res.CoordConvergence = 0
		if m := sc.Topology.MeasuredLatencies(); m != nil {
			res.CoordConvergence = 2 * maxPairwiseLatency(m)
		}
		recordInstall(sc, routers, asg, maxLocal, res.CoordMessages)
		prov.stores = func(r topology.NodeID) (cache.Store, error) {
			local, err := cache.NewStaticRange(1, min(capOf(r)-coordOf(r), sc.CatalogSize))
			if err != nil {
				return nil, err
			}
			coordPart, err := cache.NewStatic(asg.Contents(r))
			if err != nil {
				return nil, err
			}
			return cache.NewPartitioned(local, coordPart)
		}
	case PolicyLRU, PolicyProbCache:
		prov.stores = func(r topology.NodeID) (cache.Store, error) {
			return cache.NewLRU(int(capOf(r)))
		}
	case PolicyLFU:
		prov.stores = func(r topology.NodeID) (cache.Store, error) {
			return cache.NewLFU(int(capOf(r)))
		}
	case PolicySLRU:
		prov.stores = func(r topology.NodeID) (cache.Store, error) {
			return cache.NewSLRU(int(capOf(r)), 0.8)
		}
	case PolicyTwoQ:
		prov.stores = func(r topology.NodeID) (cache.Store, error) {
			return cache.NewTwoQ(int(capOf(r)), 0.25)
		}
	default:
		return provisioned{}, fmt.Errorf("sim: unknown policy %d", sc.Policy)
	}
	return prov, nil
}

// cachingMode is the data plane's on-path caching mode under the policy.
func (p Policy) cachingMode() ccn.CachingMode {
	switch p {
	case PolicyLRU, PolicyLFU, PolicySLRU, PolicyTwoQ:
		return ccn.CacheLCE
	case PolicyProbCache:
		return ccn.CacheProb
	}
	return ccn.CacheNone
}

// maxPairwiseLatency returns the largest entry of a measured latency
// matrix — the model's per-exchange unit cost w.
func maxPairwiseLatency(m [][]float64) float64 {
	var maxLat float64
	for i := range m {
		for j := range m[i] {
			maxLat = math.Max(maxLat, m[i][j])
		}
	}
	return maxLat
}

// recordInstall appends one placement-installation record to the
// scenario's timeline ring; a nil ring records nothing. The epoch
// number continues the ring's own count so a ring shared across runs
// accumulates one continuous timeline. The measured message count is
// compared against the model's 2*n*ceil(size/n) budget for the
// effective per-router coordinated quota; WallMs stays zero — batch
// installation is setup, and keeping the record deterministic keeps
// telemetry-on manifests reproducible outside the explicitly
// wall-clock engine fields.
func recordInstall(sc Scenario, routers []topology.NodeID, asg *coord.Assignment, localSlots, messages int64) {
	ring := sc.Timeline
	if ring == nil || asg == nil {
		return
	}
	n := int64(len(routers))
	size := int64(asg.Size())
	xEff := (size + n - 1) / n // effective per-router coordinated quota
	var w float64
	if m := sc.Topology.MeasuredLatencies(); m != nil {
		w = maxPairwiseLatency(m)
	}
	var level float64
	if sc.Capacity > 0 {
		level = float64(xEff) / float64(sc.Capacity)
	}
	up := messages / 2
	ring.Append(timeline.EpochRecord{
		Epoch:         int64(ring.Total()) + 1,
		Requests:      int64(sc.Requests),
		Messages:      messages,
		MessagesUp:    up,
		MessagesDown:  messages - up,
		BoundMessages: 2 * n * xEff,
		UnitCostMs:    w,
		BoundCostMs:   w * float64(n) * float64(xEff),
		ConvergenceMs: 2 * w,
		LocalSlots:    localSlots,
		CoordSlots:    xEff,
		Level:         level,
		Churn:         coord.Churn(nil, asg),
	})
}
