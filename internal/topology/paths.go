package topology

import (
	"math"
	"math/bits"
)

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a hand-rolled min-heap of pqItem by distance. It avoids
// container/heap, whose interface boxes every pushed item into an `any`
// and therefore allocates once per edge relaxation — a dominant
// allocation source when every routing tree of a graph is solved.
type pq []pqItem

// push appends it and restores the heap invariant.
func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].dist <= h[i].dist {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum-distance item.
func (q *pq) pop() pqItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].dist < h[smallest].dist {
			smallest = l
		}
		if r < n && h[r].dist < h[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// spScratch is the reusable per-source working state of one Dijkstra
// run: the settled marks, the settle order (which turns the
// predecessor tree into first hops in one linear pass), and the heap,
// pre-sized so steady-state runs never grow a slice.
type spScratch struct {
	done  []bool
	order []NodeID // nodes in settle order; order[0] is the source
	heap  pq
}

// newSPScratch sizes scratch for a graph with n nodes and m undirected
// edges. The heap can hold at most one entry per successful relaxation
// (each directed edge relaxes at most once per run), so capacity
// 2m+1 eliminates pq growth entirely.
func newSPScratch(n, m int) *spScratch {
	return &spScratch{
		done:  make([]bool, n),
		order: make([]NodeID, 0, n),
		heap:  make(pq, 0, 2*m+1),
	}
}

// downSet is the failed part of a graph: the down routers plus the down
// undirected links, keyed by LinkKey. A nil *downSet means everything
// is up.
type downSet struct {
	node  []bool
	nodes int // number of down routers
	links map[[2]NodeID]bool
}

// LinkKey normalizes an undirected link to a map key.
func LinkKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// dead reports whether the directed hop a->b is unusable: b is down or
// the link is.
func (d *downSet) dead(a, b NodeID) bool {
	return d.node[b] || (len(d.links) > 0 && d.links[LinkKey(a, b)])
}

// dijkstraRows is the single-source shortest-path kernel over link
// latencies: it fills the distance, first-hop and predecessor rows of
// one source. Every routing tree (see LRUPaths) and the diameter
// estimate run it, so one adjacency iteration order and one heap decide
// every tie. A non-nil down set restricts the solve to the alive
// subgraph: down routers never enter the heap, down links are skipped
// in place, and a down source yields an isolated row.
func (g *Graph) dijkstraRows(src NodeID, down *downSet, s *spScratch, dist []float64, next, parent []int32) {
	for i := range dist {
		dist[i] = math.Inf(1)
		next[i] = -1
		parent[i] = -1
	}
	dist[src] = 0
	if down != nil && down.node[src] {
		return
	}
	done := s.done
	for i := range done {
		done[i] = false
	}
	s.order = s.order[:0]
	s.heap = s.heap[:0]

	s.heap.push(pqItem{node: src, dist: 0})
	for len(s.heap) > 0 {
		it := s.heap.pop()
		if done[it.node] {
			continue
		}
		done[it.node] = true
		s.order = append(s.order, it.node)
		for _, he := range g.adj[it.node] {
			if down != nil && down.dead(it.node, he.to) {
				continue
			}
			if d := it.dist + he.latency; d < dist[he.to] {
				dist[he.to] = d
				parent[he.to] = int32(it.node)
				s.heap.push(pqItem{node: he.to, dist: d})
			}
		}
	}
	// The settle order is monotone in distance, so every node's
	// predecessor is resolved before the node itself: one pass converts
	// the predecessor tree into first-hop-from-src pointers.
	for _, v := range s.order[1:] {
		if p := parent[v]; NodeID(p) == src {
			next[v] = int32(v)
		} else {
			next[v] = next[p]
		}
	}
}

// meanHopsConnected computes the mean pairwise hop count over distinct
// ordered pairs by running BFS from every source (unit weights make
// BFS and Dijkstra distances identical), reusing the caller's scratch
// so the dataset seed search allocates nothing per candidate graph. It
// reports ok=false as soon as any source fails to reach every node,
// folding the connectivity check into the same pass. Per-level depths
// are integers whose float64 sums are exact, so the mean is bit-equal
// to the mean of a unit-weight Dijkstra solve regardless of summation
// order; ExtractParams reads Table III's hop mean from it.
func (g *Graph) meanHopsConnected(s *bfsScratch) (mean float64, ok bool) {
	n := len(g.nodes)
	if n < 2 {
		return 0, n == 1
	}
	if n <= 64 {
		return g.meanHopsBitBFS(s)
	}
	var sum float64
	for src := 0; src < n; src++ {
		depth := s.depth
		for i := range depth {
			depth[i] = -1
		}
		queue := s.queue[:0]
		depth[src] = 0
		queue = append(queue, NodeID(src))
		reached := 1
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			dv := depth[v]
			for _, he := range g.adj[v] {
				if depth[he.to] < 0 {
					depth[he.to] = dv + 1
					queue = append(queue, he.to)
					reached++
					sum += float64(dv + 1)
				}
			}
		}
		s.queue = queue[:0]
		if reached != n {
			return 0, false
		}
	}
	return sum / float64(n*(n-1)), true
}

// meanHopsBitBFS is meanHopsConnected for graphs of at most 64 nodes:
// frontiers are uint64 bitmasks, so one BFS level is a handful of
// mask-ors and popcounts instead of a queue walk.
func (g *Graph) meanHopsBitBFS(s *bfsScratch) (mean float64, ok bool) {
	n := len(g.nodes)
	masks := s.masks[:n]
	for a, hes := range g.adj {
		var m uint64
		for _, he := range hes {
			m |= 1 << uint(he.to)
		}
		masks[a] = m
	}
	full := ^uint64(0) >> (64 - uint(n))
	total := 0
	for src := 0; src < n; src++ {
		visited := uint64(1) << uint(src)
		frontier := visited
		depth := 0
		for {
			var next uint64
			for f := frontier; f != 0; f &= f - 1 {
				next |= masks[bits.TrailingZeros64(f)]
			}
			next &^= visited
			if next == 0 {
				break
			}
			depth++
			visited |= next
			total += depth * bits.OnesCount64(next)
			frontier = next
		}
		if visited != full {
			return 0, false
		}
	}
	return float64(total) / float64(n*(n-1)), true
}

// bfsScratch is the reusable working state of meanHopsConnected.
type bfsScratch struct {
	depth []int
	queue []NodeID
	masks []uint64
}

// newBFSScratch sizes scratch for graphs of up to n nodes.
func newBFSScratch(n int) *bfsScratch {
	m := n
	if m > 64 {
		m = 64
	}
	return &bfsScratch{
		depth: make([]int, n),
		queue: make([]NodeID, 0, n),
		masks: make([]uint64, m),
	}
}
