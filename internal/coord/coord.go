// Package coord implements the storage-coordination protocol the paper's
// cost model abstracts: routers report observed content popularity to a
// (conceptually centralized) coordinator, which computes the partitioned
// placement — every router keeps the top-ranked contents locally and the
// next n*x ranks are striped across routers — and disseminates the
// assignments. Every protocol message is counted, making the model's
// W(x) = w*n*x communication cost measurable instead of assumed. A
// tree-structured distributed variant and an online adaptive loop
// (estimating the Zipf exponent from reports and re-optimizing the
// coordination level) cover the paper's future-work directions.
package coord

import (
	"fmt"
	"math"

	"ccncoord/internal/catalog"
	"ccncoord/internal/topology"
)

// Assignment maps each coordinated content to the router provisioned to
// store it. It implements the data plane's directory lookup.
type Assignment struct {
	owners    map[catalog.ID]topology.NodeID
	perRouter map[topology.NodeID][]catalog.ID
}

// Owner returns the router assigned to id, if any. It implements
// ccn.Directory.
func (a *Assignment) Owner(id catalog.ID) (topology.NodeID, bool) {
	r, ok := a.owners[id]
	return r, ok
}

// Contents returns the contents assigned to the given router, in rank
// order.
func (a *Assignment) Contents(router topology.NodeID) []catalog.ID {
	return append([]catalog.ID(nil), a.perRouter[router]...)
}

// Size returns the total number of coordinated contents.
func (a *Assignment) Size() int { return len(a.owners) }

// StripeByRank builds the paper's coordinated placement: the ranked
// contents are dealt round-robin across the routers, so router k stores
// ranks[k], ranks[k+n], ranks[k+2n], ... Each router receives at most
// perRouter contents.
func StripeByRank(routers []topology.NodeID, ranks []catalog.ID, perRouter int64) (*Assignment, error) {
	if len(routers) == 0 {
		return nil, fmt.Errorf("coord: no routers to stripe across")
	}
	if perRouter < 0 {
		return nil, fmt.Errorf("coord: negative per-router allocation %d", perRouter)
	}
	limit := int64(len(routers)) * perRouter
	if int64(len(ranks)) > limit {
		ranks = ranks[:limit]
	}
	a := &Assignment{
		owners:    make(map[catalog.ID]topology.NodeID, len(ranks)),
		perRouter: make(map[topology.NodeID][]catalog.ID, len(routers)),
	}
	for i, id := range ranks {
		if !id.Valid() {
			return nil, fmt.Errorf("coord: invalid content id %d at position %d", id, i)
		}
		if _, dup := a.owners[id]; dup {
			return nil, fmt.Errorf("coord: duplicate content id %d", id)
		}
		r := routers[i%len(routers)]
		a.owners[id] = r
		a.perRouter[r] = append(a.perRouter[r], id)
	}
	return a, nil
}

// StripeWeighted deals the ranked contents round-robin across routers
// with per-router quotas, for heterogeneous networks where router i
// coordinates x_i contents. Routers whose quota is exhausted are
// skipped; at most sum(quotas) contents are assigned.
func StripeWeighted(routers []topology.NodeID, ranks []catalog.ID, quotas []int64) (*Assignment, error) {
	if len(routers) == 0 {
		return nil, fmt.Errorf("coord: no routers to stripe across")
	}
	if len(quotas) != len(routers) {
		return nil, fmt.Errorf("coord: %d quotas for %d routers", len(quotas), len(routers))
	}
	var capacity int64
	for i, q := range quotas {
		if q < 0 {
			return nil, fmt.Errorf("coord: negative quota %d for router %d", q, routers[i])
		}
		capacity += q
	}
	if int64(len(ranks)) > capacity {
		ranks = ranks[:capacity]
	}
	a := &Assignment{
		owners:    make(map[catalog.ID]topology.NodeID, len(ranks)),
		perRouter: make(map[topology.NodeID][]catalog.ID, len(routers)),
	}
	loads := make([]int64, len(routers))
	slot := 0
	for i, id := range ranks {
		if !id.Valid() {
			return nil, fmt.Errorf("coord: invalid content id %d at position %d", id, i)
		}
		if _, dup := a.owners[id]; dup {
			return nil, fmt.Errorf("coord: duplicate content id %d", id)
		}
		for loads[slot] >= quotas[slot] {
			slot = (slot + 1) % len(routers)
		}
		r := routers[slot]
		a.owners[id] = r
		a.perRouter[r] = append(a.perRouter[r], id)
		loads[slot]++
		slot = (slot + 1) % len(routers)
	}
	return a, nil
}

// Churn counts the placement movement from prev to next: the contents
// of next that prev did not assign, or assigned to a different router —
// the number of coordinated contents some router must newly fetch when
// the placement is installed. A nil prev (first installation) counts
// every assigned content. Contents prev held that next dropped are not
// counted: evictions are free, only placements move data.
func Churn(prev, next *Assignment) int64 {
	if next == nil {
		return 0
	}
	var moved int64
	for id, owner := range next.owners {
		if prev == nil {
			moved++
			continue
		}
		if prevOwner, ok := prev.owners[id]; !ok || prevOwner != owner {
			moved++
		}
	}
	return moved
}

// Report is one router's observed request counts over an epoch.
type Report struct {
	Router topology.NodeID
	Counts map[catalog.ID]int64
}

// Placement is the complete provisioning decision for one epoch.
type Placement struct {
	// LocalSet is the non-coordinated part: the top c-x contents by
	// estimated global popularity, replicated at every router.
	LocalSet []catalog.ID
	// Assignment stripes the next n*x contents across routers.
	Assignment *Assignment
}

// Cost tallies the protocol's communication in content-state messages,
// the unit of the model's W(x).
type Cost struct {
	MessagesUp   int64 // state reports: routers -> coordinator
	MessagesDown int64 // placement directives: coordinator -> routers
	// Convergence is the wall-clock (simulated ms) to complete the
	// epoch, governed by the slowest router pair as the paper argues for
	// w = max d_ij.
	Convergence float64
}

// Total returns all messages exchanged.
func (c Cost) Total() int64 { return c.MessagesUp + c.MessagesDown }

// aggregate merges reports into global counts.
func aggregate(reports []Report) map[catalog.ID]int64 {
	// The union is at least as large as the largest report; starting
	// there skips the map's early doublings.
	largest := 0
	for _, rep := range reports {
		largest = max(largest, len(rep.Counts))
	}
	global := make(map[catalog.ID]int64, largest)
	for _, rep := range reports {
		for id, c := range rep.Counts {
			global[id] += c
		}
	}
	return global
}

// ComputePlacement derives the epoch placement from router reports:
// the globally most popular localSlots contents form the replicated
// local set and the next n*coordSlots form the striped coordinated band.
func ComputePlacement(reports []Report, routers []topology.NodeID, localSlots, coordSlots int64) (*Placement, error) {
	return placeByCount(countsOf(aggregate(reports)), routers, localSlots, coordSlots)
}

// placeByCount is ComputePlacement on already-aggregated global counts,
// one entry per content. It reorders counts.
func placeByCount(counts []Count, routers []topology.NodeID, localSlots, coordSlots int64) (*Placement, error) {
	if len(routers) == 0 {
		return nil, fmt.Errorf("coord: no routers")
	}
	if localSlots < 0 || coordSlots < 0 {
		return nil, fmt.Errorf("coord: negative slot counts (%d, %d)", localSlots, coordSlots)
	}
	// The placement reads the first localSlots + n*coordSlots ranks and
	// nothing behind them; dividing instead of multiplying keeps slot
	// counts near MaxInt64 from overflowing.
	k := int64(len(counts))
	if n := int64(len(routers)); localSlots < k && coordSlots <= (k-localSlots)/n {
		k = localSlots + n*coordSlots
	}
	ranked := make([]catalog.ID, k)
	for i, c := range rankTop(counts, int(k)) {
		ranked[i] = c.ID
	}
	local := ranked[:min(localSlots, k)]
	asg, err := StripeByRank(routers, ranked[len(local):], coordSlots)
	if err != nil {
		return nil, err
	}
	return &Placement{LocalSet: append([]catalog.ID(nil), local...), Assignment: asg}, nil
}

// Centralized models the conceptually centralized coordinator of the
// paper's Figure 2. One epoch exchanges one state message per
// coordinated content per router upstream and one directive per
// coordinated content downstream, so the measured cost reproduces
// W(x) = w*n*x by construction — with w the per-message latency cost,
// estimated as the maximum pairwise latency since the exchanges run in
// parallel and the slowest pair gates convergence.
type Centralized struct {
	routers  []topology.NodeID
	unitCost float64 // w: max pairwise latency, ms
}

// NewCentralized returns a coordinator over the given routers with the
// given unit coordination cost w (ms per content-state exchange).
func NewCentralized(routers []topology.NodeID, unitCost float64) (*Centralized, error) {
	if len(routers) == 0 {
		return nil, fmt.Errorf("coord: no routers")
	}
	if !(unitCost > 0) {
		return nil, fmt.Errorf("coord: unit cost must be positive, got %v", unitCost)
	}
	return &Centralized{routers: append([]topology.NodeID(nil), routers...), unitCost: unitCost}, nil
}

// UnitCost returns w, the per-exchange unit coordination cost (ms).
func (c *Centralized) UnitCost() float64 { return c.unitCost }

// RunEpoch computes the placement for the given reports and capacity
// split, returning the placement and the measured protocol cost.
func (c *Centralized) RunEpoch(reports []Report, localSlots, coordSlots int64) (*Placement, Cost, error) {
	return c.RunEpochCounts(countsOf(aggregate(reports)), localSlots, coordSlots)
}

// RunEpochCounts is RunEpoch on already-aggregated global counts, one
// entry per content — what a Tally folds to. It reorders counts.
func (c *Centralized) RunEpochCounts(counts []Count, localSlots, coordSlots int64) (*Placement, Cost, error) {
	p, err := placeByCount(counts, c.routers, localSlots, coordSlots)
	if err != nil {
		return nil, Cost{}, err
	}
	n := int64(len(c.routers))
	cost := Cost{
		MessagesUp:   n * coordSlots,
		MessagesDown: n * coordSlots,
		// Collection and dissemination are parallel; each phase takes
		// one max-latency exchange.
		Convergence: 2 * c.unitCost,
	}
	return p, cost, nil
}

// Distributed models a tree-structured fully distributed coordinator:
// reports aggregate up a binary tree over the routers and directives
// flow back down, trading ceil(log2 n) sequential rounds for the absence
// of a central point. Message totals match the centralized protocol
// (every router's state must still move), but convergence scales with
// the tree depth.
type Distributed struct {
	routers  []topology.NodeID
	unitCost float64
}

// NewDistributed returns the tree-structured coordinator.
func NewDistributed(routers []topology.NodeID, unitCost float64) (*Distributed, error) {
	if len(routers) == 0 {
		return nil, fmt.Errorf("coord: no routers")
	}
	if !(unitCost > 0) {
		return nil, fmt.Errorf("coord: unit cost must be positive, got %v", unitCost)
	}
	return &Distributed{routers: append([]topology.NodeID(nil), routers...), unitCost: unitCost}, nil
}

// UnitCost returns w, the per-exchange unit coordination cost (ms).
func (d *Distributed) UnitCost() float64 { return d.unitCost }

// RunEpoch computes the placement and the tree-aggregation cost.
func (d *Distributed) RunEpoch(reports []Report, localSlots, coordSlots int64) (*Placement, Cost, error) {
	p, err := ComputePlacement(reports, d.routers, localSlots, coordSlots)
	if err != nil {
		return nil, Cost{}, err
	}
	n := int64(len(d.routers))
	depth := math.Ceil(math.Log2(float64(n)))
	if depth < 1 {
		depth = 1
	}
	cost := Cost{
		MessagesUp:   (n - 1) * coordSlots,
		MessagesDown: (n - 1) * coordSlots,
		Convergence:  2 * depth * d.unitCost,
	}
	return p, cost, nil
}

// EstimateZipf fits the Zipf exponent s to observed global request
// counts by least-squares regression of log(count) on log(rank), the
// standard estimator for heavy-tailed popularity. It needs at least
// minRanks distinct observed contents; ranks with zero count are
// skipped. This powers the online adaptive loop of the paper's future
// work: the coordinator never needs the true s, only request
// observations.
func EstimateZipf(counts map[catalog.ID]int64, maxRanks int) (float64, error) {
	return estimateZipf(countsOf(counts), maxRanks)
}

// estimateZipf is EstimateZipf on pair-form counts, which it reorders.
func estimateZipf(counts []Count, maxRanks int) (float64, error) {
	const minRanks = 5
	if maxRanks <= 0 {
		maxRanks = len(counts)
	}
	var xs, ys []float64
	for i, c := range rankTop(counts, maxRanks) {
		if c.N <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(i+1)))
		ys = append(ys, math.Log(float64(c.N)))
	}
	if len(xs) < minRanks {
		return 0, fmt.Errorf("coord: need at least %d observed contents to estimate s, have %d", minRanks, len(xs))
	}
	// Least squares slope; s is its negation.
	var sumX, sumY, sumXX, sumXY float64
	for i := range xs {
		sumX += xs[i]
		sumY += ys[i]
		sumXX += xs[i] * xs[i]
		sumXY += xs[i] * ys[i]
	}
	nf := float64(len(xs))
	den := nf*sumXX - sumX*sumX
	if den == 0 {
		return 0, fmt.Errorf("coord: degenerate rank distribution")
	}
	slope := (nf*sumXY - sumX*sumY) / den
	s := -slope
	// Reject non-positive and numerically-flat estimates: a (near-)flat
	// count distribution carries no Zipf signal.
	const minExponent = 1e-6
	if s <= minExponent {
		return 0, fmt.Errorf("coord: estimated exponent %v is not meaningfully positive", s)
	}
	return s, nil
}
