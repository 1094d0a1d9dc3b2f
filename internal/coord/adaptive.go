package coord

import (
	"fmt"
	"math"

	"ccncoord/internal/model"
	"ccncoord/internal/topology"
	"ccncoord/internal/zipf"
)

// Adaptive is the online self-adaptive coordinator of the paper's first
// future-work direction: each epoch it re-estimates the Zipf exponent
// from the routers' observed request counts, re-solves the optimal
// coordination level x* under the current cost trade-off, and installs
// the corresponding placement. The true popularity distribution is never
// consulted.
type Adaptive struct {
	base        model.Config // S is overwritten each epoch
	coordinator *Centralized
	lastS       float64
	lastLevel   float64
}

// NewAdaptive returns an adaptive coordinator. base supplies every model
// parameter except the Zipf exponent, which is learned online; base.S is
// used only as the initial guess before the first epoch.
func NewAdaptive(routers []topology.NodeID, base model.Config) (*Adaptive, error) {
	if base.Routers != len(routers) {
		return nil, fmt.Errorf("coord: config says %d routers, got %d", base.Routers, len(routers))
	}
	central, err := NewCentralized(routers, base.UnitCost)
	if err != nil {
		return nil, err
	}
	return &Adaptive{base: base, coordinator: central, lastS: base.S}, nil
}

// LastEstimate returns the most recent Zipf exponent estimate.
func (a *Adaptive) LastEstimate() float64 { return a.lastS }

// LastLevel returns the most recent optimal coordination level.
func (a *Adaptive) LastLevel() float64 { return a.lastLevel }

// Epoch ingests the routers' reports, re-estimates s, re-optimizes the
// coordination level, and returns the new placement with its protocol
// cost.
func (a *Adaptive) Epoch(reports []Report) (*Placement, Cost, error) {
	if len(reports) == 0 {
		return nil, Cost{}, fmt.Errorf("coord: no reports")
	}
	// One aggregation feeds both the estimator and the placement; each
	// ranks the pairs afresh, so the reordering the first leaves is moot.
	counts := countsOf(aggregate(reports))
	s, err := estimateZipf(counts, 10000)
	if err == nil {
		// The analytical model excludes the singular point s = 1 and the
		// tail beyond 2; clamp the estimate into its domain.
		switch {
		case s >= 2:
			s = 1.99
		case s <= 0.01:
			s = 0.01
		case math.Abs(s-1) < 0.005:
			s = 1.005
		}
		a.lastS = s
	}
	cfg := a.base
	cfg.S = a.lastS
	cfg.Amortization = zipf.BoundaryMass(cfg.C, cfg.S, cfg.N)
	x, err := cfg.OptimalX()
	if err != nil {
		return nil, Cost{}, fmt.Errorf("coord: adaptive optimization: %w", err)
	}
	coordSlots := int64(math.Round(x))
	localSlots := int64(cfg.C) - coordSlots
	a.lastLevel = x / cfg.C
	return a.coordinator.RunEpochCounts(counts, localSlots, coordSlots)
}
