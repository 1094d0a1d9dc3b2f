package topology

import (
	"fmt"
	"math"
	"sync"

	"ccncoord/internal/par"
)

// LRUPaths answers shortest-path queries from a bounded cache of
// per-source shortest-path trees, computed on demand by the same
// Dijkstra kernel the dense APSP uses. One tree holds source src's full
// distance, first-hop and predecessor rows (16·n bytes: a float64 and
// two int32 node ids per node), so the whole backend costs
// 16·n·capacity bytes instead of the dense matrix's 16·n² — the backend
// that unlocks 10⁵-router topologies, where one dense matrix would need
// ~160 GB.
//
// Exactness: a cached tree is produced by Graph.dijkstraRows with the
// identical adjacency iteration order as a dense APSP row, so Dist and
// Next are bit-identical to the dense backend on any graph — ties
// included. Path walks first hops across trees exactly like APSP.Path
// walks Next rows, so it is bit-identical too; note that a cold Path
// query can therefore fill up to path-length trees (see PathTree for
// the single-tree variant that stays within tree(src)).
//
// Invalidation: every query stamps itself against the graph's mutation
// generation; any Graph mutator bumps the generation (see Graph.bump),
// so the first query after a mutation drops every cached tree and
// recomputes against the new structure — the same contract as the dense
// APSP cache.
//
// Faults: SetNode and SetLink take routers and links down or up without
// touching the Graph. Every answer then describes the alive subgraph,
// and an event evicts only the cached trees it can change, read from
// each tree's own rows (see SetNode, SetLink). An evicted tree is
// recomputed by the same kernel over the alive subgraph on its next
// query, so Dist and Next always equal a fresh solve of that subgraph.
//
// Sharing: Graph.ShortestPathTrees hands every caller on one graph the
// same fault-free table, so its trees are solved once per graph and
// then served to every run; a caller that applies faults builds its
// own table.
//
// LRUPaths is safe for concurrent readers (one mutex serializes
// queries); mutating the underlying Graph, and fault events racing a
// Warm, still require external synchronization, exactly as with the
// dense cache.
type LRUPaths struct {
	g   *Graph
	cap int

	mu      sync.Mutex
	gen     uint64
	trees   []*lruTree // by source; nil when not cached
	cached  int        // non-nil entries of trees
	head    *lruTree   // most recently used
	tail    *lruTree   // least recently used
	scratch *spScratch
	down    *downSet // nil while every router and link is up

	hits, misses, evictions uint64

	// Cached whole-graph aggregates (MaxDist / MeanDist sweep), valid
	// for aggGen only.
	aggValid bool
	aggGen   uint64
	maxDist  float64
	distSum  float64
}

// lruTree is one cached single-source shortest-path tree.
type lruTree struct {
	src       NodeID
	dist      []float64
	next      []int32
	parent    []int32
	prev, nxt *lruTree
}

// newLRUTree allocates the rows of one tree for an n-node graph.
func newLRUTree(n int) *lruTree {
	return &lruTree{
		dist:   make([]float64, n),
		next:   make([]int32, n),
		parent: make([]int32, n),
	}
}

// DefaultLRUBudgetBytes is the tree-cache memory budget when
// NewLRUPaths is given a non-positive capacity: the capacity becomes
// budget / (16·n) trees, clamped to [minLRUCapacity, n].
const DefaultLRUBudgetBytes = 256 << 20

// minLRUCapacity keeps a degenerate budget from thrashing on every
// query.
const minLRUCapacity = 16

// treeBytes is the memory footprint of one cached tree for an n-node
// graph: one float64 plus two int32 entries per node.
func treeBytes(n int) int { return n * 16 }

// LRUCapacityForBudget returns how many shortest-path trees of an
// n-node graph fit in budgetBytes, clamped to [minLRUCapacity, n].
func LRUCapacityForBudget(n, budgetBytes int) int {
	c := budgetBytes / treeBytes(max(n, 1))
	if c < minLRUCapacity {
		c = minLRUCapacity
	}
	if c > n {
		c = n
	}
	if c < 1 {
		c = 1
	}
	return c
}

// NewLRUPaths builds the LRU backend over g's latency metric with room
// for capacity cached trees; non-positive capacity selects
// LRUCapacityForBudget(n, DefaultLRUBudgetBytes).
func NewLRUPaths(g *Graph, capacity int) *LRUPaths {
	n := g.N()
	if capacity <= 0 {
		capacity = LRUCapacityForBudget(n, DefaultLRUBudgetBytes)
	}
	if capacity > n && n > 0 {
		capacity = n
	}
	return &LRUPaths{
		g:       g,
		cap:     capacity,
		gen:     g.gen,
		trees:   make([]*lruTree, n),
		scratch: newSPScratch(n, g.edges),
	}
}

// N returns the number of nodes covered.
func (l *LRUPaths) N() int { return l.g.N() }

// Capacity returns the maximum number of cached trees.
func (l *LRUPaths) Capacity() int { return l.cap }

// Stats returns the cumulative query-cache counters: tree hits, misses
// (each miss is one Dijkstra), and evictions.
func (l *LRUPaths) Stats() (hits, misses, evictions uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits, l.misses, l.evictions
}

// flushLocked drops every cached tree after a graph mutation; the node
// count may have changed, so scratch and tree buffers are resized by
// reallocation.
func (l *LRUPaths) flushLocked() {
	n := l.g.N()
	l.gen = l.g.gen
	l.trees, l.cached = make([]*lruTree, n), 0
	l.head, l.tail = nil, nil
	l.scratch = newSPScratch(n, l.g.edges)
	l.aggValid = false
	if l.cap > n && n > 0 {
		l.cap = n
	}
	if l.down != nil && len(l.down.node) < n {
		l.down.node = append(l.down.node, make([]bool, n-len(l.down.node))...)
	}
}

// treeLocked returns src's shortest-path tree, computing and caching it
// on a miss (evicting the least recently used tree when full). The
// caller holds l.mu.
func (l *LRUPaths) treeLocked(src NodeID) *lruTree {
	if l.gen != l.g.gen {
		l.flushLocked()
	}
	if t := l.trees[src]; t != nil {
		l.hits++
		if l.cap < len(l.trees) {
			// With room for every source nothing is ever evicted, so
			// only a smaller cache keeps the recency order.
			l.touchLocked(t)
		}
		return t
	}
	l.misses++
	n := l.g.N()
	var t *lruTree
	if l.cached >= l.cap && l.tail != nil {
		// Reuse the evicted tree's buffers: steady state allocates
		// nothing per miss.
		t = l.tail
		l.removeLocked(t)
		l.evictions++
	} else {
		t = newLRUTree(n)
	}
	t.src = src
	l.g.dijkstraRows(src, false, l.down, l.scratch, t.dist, t.next, t.parent)
	l.insertLocked(t)
	return t
}

// insertLocked caches t as its source's tree, most recently used.
func (l *LRUPaths) insertLocked(t *lruTree) {
	l.trees[t.src] = t
	l.cached++
	l.pushFrontLocked(t)
}

// removeLocked drops t from the cache.
func (l *LRUPaths) removeLocked(t *lruTree) {
	l.unlinkLocked(t)
	l.trees[t.src] = nil
	l.cached--
}

// touchLocked moves t to the most-recently-used position.
func (l *LRUPaths) touchLocked(t *lruTree) {
	if l.head == t {
		return
	}
	l.unlinkLocked(t)
	l.pushFrontLocked(t)
}

// unlinkLocked removes t from the LRU list.
func (l *LRUPaths) unlinkLocked(t *lruTree) {
	if t.prev != nil {
		t.prev.nxt = t.nxt
	} else {
		l.head = t.nxt
	}
	if t.nxt != nil {
		t.nxt.prev = t.prev
	} else {
		l.tail = t.prev
	}
	t.prev, t.nxt = nil, nil
}

// pushFrontLocked inserts t at the most-recently-used position.
func (l *LRUPaths) pushFrontLocked(t *lruTree) {
	t.prev, t.nxt = nil, l.head
	if l.head != nil {
		l.head.prev = t
	}
	l.head = t
	if l.tail == nil {
		l.tail = t
	}
}

// Dist returns the shortest-path length from i to j, bit-identical to
// the dense backend.
func (l *LRUPaths) Dist(i, j NodeID) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.treeLocked(i).dist[j]
}

// Next returns the first hop out of i on a shortest path toward j, or
// -1 when i == j or j is unreachable; bit-identical to the dense
// backend.
func (l *LRUPaths) Next(i, j NodeID) NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return NodeID(l.treeLocked(i).next[j])
}

// Path returns the node sequence from src to dst (inclusive), walking
// first hops across per-source trees exactly like APSP.Path walks Next
// rows — so the sequence is bit-identical to the dense backend's, ties
// included. A cold call can fill up to path-length trees; see PathTree
// for the single-tree variant.
func (l *LRUPaths) Path(src, dst NodeID) ([]NodeID, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.g.N()
	if int(src) >= n || int(dst) >= n || src < 0 || dst < 0 {
		return nil, fmt.Errorf("topology: path endpoints (%d,%d) out of range", src, dst)
	}
	if src == dst {
		return []NodeID{src}, nil
	}
	path := []NodeID{src}
	cur := src
	for cur != dst {
		nxt := NodeID(l.treeLocked(cur).next[dst])
		if nxt < 0 {
			return nil, fmt.Errorf("topology: %d unreachable from %d", dst, src)
		}
		path = append(path, nxt)
		cur = nxt
		if len(path) > n+1 {
			return nil, fmt.Errorf("topology: first-hop matrix contains a loop between %d and %d", src, dst)
		}
	}
	return path, nil
}

// PathTree returns a shortest path from src to dst read entirely out of
// src's own tree (the predecessor chain), touching exactly one cached
// tree — the query shape the LRU is sized for. The result is a valid
// shortest path of the same length as Path's; under exact equal-cost
// ties the node sequence may differ from the dense walk.
func (l *LRUPaths) PathTree(src, dst NodeID) ([]NodeID, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.g.N()
	if int(src) >= n || int(dst) >= n || src < 0 || dst < 0 {
		return nil, fmt.Errorf("topology: path endpoints (%d,%d) out of range", src, dst)
	}
	if src == dst {
		return []NodeID{src}, nil
	}
	t := l.treeLocked(src)
	// Walk predecessors dst -> src, then reverse in place.
	path := []NodeID{dst}
	cur := dst
	for cur != src {
		p := NodeID(t.parent[cur])
		if p < 0 {
			return nil, fmt.Errorf("topology: %d unreachable from %d", dst, src)
		}
		path = append(path, p)
		cur = p
		if len(path) > n+1 {
			return nil, fmt.Errorf("topology: predecessor chain contains a loop between %d and %d", src, dst)
		}
	}
	for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
		path[a], path[b] = path[b], path[a]
	}
	return path, nil
}

// Warm precomputes the trees of the given sources, fanning the
// Dijkstras over the worker pool (non-positive workers selects the
// default width) and inserting the results in input order, so a warmed
// cache is deterministic regardless of worker count. Sources beyond the
// cache capacity evict earlier ones, exactly as queries would.
func (l *LRUPaths) Warm(sources []NodeID, workers int) {
	if len(sources) == 0 {
		return
	}
	l.mu.Lock()
	if l.gen != l.g.gen {
		l.flushLocked()
	}
	// Skip sources that are already cached; compute the rest outside
	// per-source lock contention (the pool writes disjoint slots).
	missing := make([]NodeID, 0, len(sources))
	seen := make(map[NodeID]bool, len(sources))
	for _, s := range sources {
		if s < 0 || int(s) >= l.g.N() || seen[s] {
			continue
		}
		seen[s] = true
		if l.trees[s] == nil {
			missing = append(missing, s)
		}
	}
	n := l.g.N()
	down := l.down
	l.mu.Unlock()
	if len(missing) == 0 {
		return
	}
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	if workers > len(missing) {
		workers = len(missing)
	}
	out := make([]*lruTree, len(missing))
	_ = par.ForEach(workers, workers, func(w int) error {
		scratch := newSPScratch(n, l.g.edges)
		for i := w; i < len(missing); i += workers {
			t := newLRUTree(n)
			t.src = missing[i]
			l.g.dijkstraRows(missing[i], false, down, scratch, t.dist, t.next, t.parent)
			out[i] = t
		}
		return nil
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != l.g.gen {
		// The graph mutated mid-warm; the computed trees are stale.
		l.flushLocked()
		return
	}
	for _, t := range out {
		if l.trees[t.src] != nil {
			continue
		}
		l.misses++ // a warm fill is an off-path miss: it ran one Dijkstra
		if l.cached >= l.cap && l.tail != nil {
			l.removeLocked(l.tail)
			l.evictions++
		}
		l.insertLocked(t)
	}
}

// sweepBatch is how many sources each worker solves per round of the
// aggregate sweep before the round's rows are folded in source order.
const sweepBatch = 8

// sweepLocked computes the whole-graph aggregates (max and sum of
// finite off-diagonal distances) with one Dijkstra per uncached source.
// Each round fans sweepBatch sources per worker over the pool (above
// parallelAPSPSources nodes), then folds the round's rows serially in
// source order, scanning each in destination order: the same additions
// in the same order as the dense scan, so both aggregates are
// bit-identical to the dense backend's at any worker count, in
// O(batch·n) memory where the dense MaxDist/MeanDist scan an O(n²)
// matrix. A row served from a cached tree costs no Dijkstra, and while
// the cache has room a solved row is kept as its source's tree (never
// evicting one), so a table whose capacity covers every source solves
// each tree exactly once. The caller holds l.mu.
func (l *LRUPaths) sweepLocked() {
	if l.gen != l.g.gen {
		l.flushLocked()
	}
	if l.aggValid && l.aggGen == l.gen {
		return
	}
	n := l.g.N()
	workers := 1
	if n >= parallelAPSPSources {
		workers = min(par.DefaultWorkers(), n)
	}
	scratch := make([]*spScratch, workers)
	scratch[0] = l.scratch
	for w := 1; w < workers; w++ {
		scratch[w] = newSPScratch(n, l.g.edges)
	}
	// rows[k] is the solve buffer of the round's k-th source; it is
	// nil again once the cache has kept the tree solved into it.
	rows := make([]*lruTree, sweepBatch*workers)
	var maxD, sum float64
	for base := 0; base < n; base += len(rows) {
		end := min(base+len(rows), n)
		// The workers only read l.trees; the fold below writes it.
		_ = par.ForEach(workers, workers, func(w int) error {
			for i := base + w; i < end; i += workers {
				if l.trees[i] != nil {
					continue
				}
				t := rows[i-base]
				if t == nil {
					t = newLRUTree(n)
					rows[i-base] = t
				}
				t.src = NodeID(i)
				l.g.dijkstraRows(t.src, false, l.down, scratch[w], t.dist, t.next, t.parent)
			}
			return nil
		})
		for i := base; i < end; i++ {
			t := l.trees[i]
			if t == nil {
				t = rows[i-base]
				if l.cached < l.cap {
					l.misses++ // a kept row is a fill: it ran one Dijkstra
					l.insertLocked(t)
					rows[i-base] = nil
				}
			}
			for j, d := range t.dist {
				if i != j && !math.IsInf(d, 1) {
					sum += d
					if d > maxD {
						maxD = d
					}
				}
			}
		}
	}
	l.maxDist, l.distSum = maxD, sum
	l.aggValid, l.aggGen = true, l.gen
}

// MaxDist returns the largest finite off-diagonal distance (the
// weighted diameter), bit-identical to the dense backend. The first
// call per graph generation or fault event runs the parallel sweep (one
// Dijkstra per uncached source); the scalar is then cached.
func (l *LRUPaths) MaxDist() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweepLocked()
	return l.maxDist
}

// MeanDist returns the mean off-diagonal pairwise distance (see
// APSP.MeanDist for the includeDiagonal convention), bit-identical to
// the dense backend; cached like MaxDist.
func (l *LRUPaths) MeanDist(includeDiagonal bool) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.g.N()
	if n < 2 {
		return 0
	}
	l.sweepLocked()
	if includeDiagonal {
		return l.distSum / float64(n*n)
	}
	return l.distSum / float64(n*(n-1))
}

// LinkDown reports whether SetLink has taken the undirected link (a, b)
// down. It reads the fault state without locking, so it must not race a
// fault event.
func (l *LRUPaths) LinkDown(a, b NodeID) bool {
	return l.down != nil && len(l.down.links) > 0 && l.down.links[LinkKey(a, b)]
}

// downLocked returns the fault state, allocating it on the first event.
func (l *LRUPaths) downLocked() *downSet {
	if l.down == nil {
		l.down = &downSet{node: make([]bool, l.g.N()), links: make(map[[2]NodeID]bool)}
	}
	return l.down
}

// settleLocked finishes a fault event: the cached aggregates are stale,
// and once the last fault clears the down set returns to nil so the
// kernel runs its all-up path.
func (l *LRUPaths) settleLocked() {
	l.aggValid = false
	if l.down.nodes == 0 && len(l.down.links) == 0 {
		l.down = nil
	}
}

// invalidateLocked evicts every cached tree for which stale reports
// true.
func (l *LRUPaths) invalidateLocked(stale func(t *lruTree) bool) {
	for t := l.head; t != nil; {
		nxt := t.nxt
		if stale(t) {
			l.removeLocked(t)
		}
		t = nxt
	}
}

// SetNode takes router v down (up=false) or brings it back, and evicts
// the cached trees the event changes. Down: the tree of v, plus every
// tree that routes through v (some parent is v); in every other tree v
// was at most a leaf, so only its column is cut. Up: every tree, since
// column v is unreachable in all of them. Repeating v's current state
// is a no-op.
func (l *LRUPaths) SetNode(v NodeID, up bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != l.g.gen {
		l.flushLocked()
	}
	if (l.down != nil && l.down.node[v]) == !up {
		return
	}
	d := l.downLocked()
	d.node[v] = !up
	if up {
		d.nodes--
		l.invalidateLocked(func(*lruTree) bool { return true })
	} else {
		d.nodes++
		l.invalidateLocked(func(t *lruTree) bool {
			if t.src == v {
				return true
			}
			for _, p := range t.parent {
				if NodeID(p) == v {
					return true
				}
			}
			t.dist[v], t.next[v], t.parent[v] = math.Inf(1), -1, -1
			return false
		})
	}
	l.settleLocked()
}

// SetLink takes the undirected link (a, b) down (up=false) or brings it
// back, and evicts the cached trees the event changes. Down: the trees
// that use the edge (parent[b]==a or parent[a]==b). Up: the trees in
// which one endpoint improves through the restored edge; by the
// triangle inequality no other destination can improve if neither
// does. A link restored under a down endpoint stays dead and evicts
// nothing. Repeating the link's current state is a no-op.
func (l *LRUPaths) SetLink(a, b NodeID, up bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != l.g.gen {
		l.flushLocked()
	}
	key := LinkKey(a, b)
	if l.LinkDown(a, b) == !up {
		return
	}
	d := l.downLocked()
	if up {
		delete(d.links, key)
		if w, err := l.g.EdgeLatency(a, b); err == nil && !d.node[a] && !d.node[b] {
			l.invalidateLocked(func(t *lruTree) bool {
				da, db := t.dist[a], t.dist[b]
				return da+w < db || db+w < da
			})
		}
	} else {
		d.links[key] = true
		l.invalidateLocked(func(t *lruTree) bool { return NodeID(t.parent[b]) == a || NodeID(t.parent[a]) == b })
	}
	l.settleLocked()
}

// Reroute returns a fresh table over g, a structurally changed copy of
// l's graph, with l's capacity and fault state; down links g no longer
// has are dropped.
func (l *LRUPaths) Reroute(g *Graph) *LRUPaths {
	fresh := NewLRUPaths(g, l.cap)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down == nil {
		return fresh
	}
	d := fresh.downLocked()
	for v, isDown := range l.down.node {
		if isDown && v < g.N() {
			d.node[v] = true
			d.nodes++
		}
	}
	for key := range l.down.links {
		if g.HasEdge(key[0], key[1]) {
			d.links[key] = true
		}
	}
	fresh.settleLocked()
	return fresh
}
