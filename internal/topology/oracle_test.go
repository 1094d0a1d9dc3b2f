package topology

import (
	"fmt"
	"math"
)

// APSP is the test oracle for the routing table: all-pairs shortest
// paths on flat, stride-indexed arrays (row i starts at offset i*n),
// solved by one Dijkstra per source into its own rows. Dist(i, j) is
// the shortest-path length from i to j (0 on the diagonal, +Inf if
// unreachable), Next(i, j) the first hop on a shortest path from i
// toward j (-1 on the diagonal or if unreachable). It shares nothing
// with LRUPaths but the kernel, so comparing the two checks the table's
// caching, eviction, fault repair, sweep and lock-free publication.
type APSP struct {
	n      int
	dist   []float64
	next   []int32
	parent []int32
}

// Dist returns the shortest-path length from i to j.
func (a *APSP) Dist(i, j NodeID) float64 { return a.dist[int(i)*a.n+int(j)] }

// Next returns the first hop out of i on a shortest path toward j, or
// -1 when i == j or j is unreachable.
func (a *APSP) Next(i, j NodeID) NodeID { return NodeID(a.next[int(i)*a.n+int(j)]) }

// newAPSP allocates an uninitialized matrix for n nodes.
func newAPSP(n int) *APSP {
	return &APSP{
		n:      n,
		dist:   make([]float64, n*n),
		next:   make([]int32, n*n),
		parent: make([]int32, n*n),
	}
}

// apsp solves the latency oracle of g from scratch, one Dijkstra per
// source.
func (g *Graph) apsp() *APSP {
	n := len(g.nodes)
	out := newAPSP(n)
	scratch := newSPScratch(n, g.edges)
	for src := 0; src < n; src++ {
		base := src * n
		g.dijkstraRows(NodeID(src), nil, scratch,
			out.dist[base:base+n], out.next[base:base+n], out.parent[base:base+n])
	}
	return out
}

// hopAPSP solves the hop-count oracle of g: the latency oracle of a
// copy whose every link weighs 1.
func (g *Graph) hopAPSP() *APSP {
	unit := g.structure()
	if err := unit.TransformLatencies(func(float64) float64 { return 1 }); err != nil {
		panic(err)
	}
	return unit.apsp()
}

// Path returns the node sequence from src to dst (inclusive) following
// the first-hop matrix, or an error if dst is unreachable.
func (a *APSP) Path(src, dst NodeID) ([]NodeID, error) {
	if int(src) >= a.n || int(dst) >= a.n || src < 0 || dst < 0 {
		return nil, fmt.Errorf("topology: path endpoints (%d,%d) out of range", src, dst)
	}
	if src == dst {
		return []NodeID{src}, nil
	}
	path := []NodeID{src}
	cur := src
	for cur != dst {
		nxt := a.Next(cur, dst)
		if nxt < 0 {
			return nil, fmt.Errorf("topology: %d unreachable from %d", dst, src)
		}
		path = append(path, nxt)
		cur = nxt
		if len(path) > a.n+1 {
			return nil, fmt.Errorf("topology: first-hop matrix contains a loop between %d and %d", src, dst)
		}
	}
	return path, nil
}

// MaxDist returns the largest finite off-diagonal distance (the weighted
// diameter). It returns 0 for graphs with fewer than two nodes.
func (a *APSP) MaxDist() float64 {
	var m float64
	n := a.n
	for i := 0; i < n; i++ {
		row := a.dist[i*n : (i+1)*n]
		for j, d := range row {
			if i != j && !math.IsInf(d, 1) && d > m {
				m = d
			}
		}
	}
	return m
}

// MeanDist returns the mean off-diagonal pairwise distance. With
// includeDiagonal true it divides by |V|^2; otherwise by |V|*(|V|-1).
func (a *APSP) MeanDist(includeDiagonal bool) float64 {
	n := a.n
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		row := a.dist[i*n : (i+1)*n]
		for j, d := range row {
			if i != j && !math.IsInf(d, 1) {
				sum += d
			}
		}
	}
	if includeDiagonal {
		return sum / float64(n*n)
	}
	return sum / float64(n*(n-1))
}
