package topology

import "fmt"

// Params are the topological parameters of the paper's Table III,
// extracted from a topology's pairwise shortest paths:
//
//   - N: number of routers n = |V|.
//   - UnitCost: w = max_{i,j} d_ij, the maximum pairwise latency, used as
//     the unit coordination cost (coordination converges at the speed of
//     the slowest router pair; Section V-A).
//   - TierGapMs: d1-d0 measured as the mean pairwise latency.
//   - TierGapHops: d1-d0 measured as the mean pairwise hop count.
type Params struct {
	Name        string
	N           int
	UnitCost    float64 // w, ms
	TierGapMs   float64 // d1-d0, ms
	TierGapHops float64 // d1-d0, hops
}

// ExtractParams computes Table III's parameters from the graph. Means
// are taken over distinct ordered pairs: the paper prints the formula
// with a 1/|V|^2 factor, but its own Abilene value (2.4182 mean hops)
// matches the real Abilene backbone only under the distinct-pairs
// denominator |V|(|V|-1), so that convention is used here.
//
// When the graph carries a measured pairwise latency matrix (as the
// paper's datasets do), w and d1-d0 (ms) come from that matrix;
// otherwise they come from the graph's routing table. The hop mean
// comes from a breadth-first pass over every source.
func ExtractParams(g *Graph) (Params, error) {
	if g.N() < 2 {
		return Params{}, fmt.Errorf("topology: %q has %d nodes; need at least 2", g.Name(), g.N())
	}
	hops, connected := g.meanHopsConnected(newBFSScratch(g.N()))
	if !connected {
		return Params{}, fmt.Errorf("topology: %q is not connected", g.Name())
	}
	p := Params{
		Name:        g.Name(),
		N:           g.N(),
		TierGapHops: hops,
	}
	if m := g.MeasuredLatencies(); m != nil {
		p.UnitCost = matrixMax(m)
		p.TierGapMs = matrixMean(m)
	} else {
		lat := g.ShortestPathsLatency()
		p.UnitCost = lat.MaxDist()
		p.TierGapMs = lat.MeanDist(false)
	}
	return p, nil
}

// matrixMax returns the largest off-diagonal entry.
func matrixMax(m [][]float64) float64 {
	var v float64
	for i := range m {
		for j, d := range m[i] {
			if i != j && d > v {
				v = d
			}
		}
	}
	return v
}

// matrixMean returns the mean off-diagonal entry.
func matrixMean(m [][]float64) float64 {
	n := len(m)
	if n < 2 {
		return 0
	}
	var sum float64
	for i := range m {
		for j, d := range m[i] {
			if i != j {
				sum += d
			}
		}
	}
	return sum / float64(n*(n-1))
}
