package topology

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ccncoord/internal/par"
)

// LRUPaths is the routing table: it answers shortest-path queries over
// a graph's link latencies from per-source shortest-path trees, each
// solved on demand by one Dijkstra. One tree holds source src's full
// distance, first-hop and predecessor rows (16·n bytes: a float64 and
// two int32 node ids per node), so a table costs 16·n·capacity bytes.
// Dist(i, j) is the shortest-path length from i to j (0 on the
// diagonal, +Inf if unreachable), Next(i, j) the first hop out of i
// toward j (-1 on the diagonal or if unreachable).
//
// Full and bounded tables: a table whose capacity covers every source
// (every graph up to 4 096 routers at the default budget) never evicts.
// Each tree is solved once, on its first query under the fill mutex or
// by the diameter sweep, and then published in its source's slot;
// from then on Dist and Next are a slot load plus a row index, with no
// lock and no recency list. A bounded table (capacity below the source
// count, for graphs past the budget) keeps its trees in LRU order, and
// every query takes the mutex, because a miss recycles the least
// recently used tree's buffers.
//
// Exactness: every tree is produced by Graph.dijkstraRows, one kernel
// with one adjacency order, so the answers do not depend on capacity,
// fill order or worker count — ties included.
//
// Invalidation: every query stamps itself against the graph's mutation
// generation; any Graph mutator bumps the generation (see Graph.bump),
// so the first query after a mutation drops every cached tree and
// recomputes against the new structure.
//
// Faults: SetNode and SetLink take routers and links down or up without
// touching the Graph. Every answer then describes the alive subgraph,
// and an event evicts only the cached trees it can change, read from
// each tree's own rows (see SetNode, SetLink). An evicted tree is
// recomputed by the same kernel over the alive subgraph on its next
// query, so Dist and Next always equal a fresh solve of that subgraph.
//
// Sharing: Graph.ShortestPathsLatency hands every caller on one graph
// the same fault-free table, so its trees are solved once per graph and
// then served to every run; a caller that applies faults builds its
// own table.
//
// LRUPaths is safe for concurrent queries. Mutating the underlying
// Graph and applying fault events must not race a query or a Warm; the
// data plane applies faults from its single event loop.
type LRUPaths struct {
	g *Graph

	// gen is the graph generation the cached trees describe; full,
	// cap and trees are rewritten only together with it, under mu, and
	// gen is stored last. A lock-free reader loads gen first, so when
	// it matches the graph the reader also sees the matching full and
	// trees.
	gen   atomic.Uint64
	full  bool // cap covers every source: nothing is ever evicted
	cap   int
	trees []atomic.Pointer[lruTree] // by source; nil when not cached

	// mu is the fill mutex: it serializes solves, fault events and the
	// sweep, and on a bounded table every query.
	mu      sync.Mutex
	cached  int      // non-nil entries of trees
	head    *lruTree // most recently used (bounded tables only)
	tail    *lruTree // least recently used (bounded tables only)
	scratch *spScratch
	down    *downSet // nil while every router and link is up

	// hits counts the hits of trees no longer cached; the live trees
	// count their own (see Stats).
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
	hits      atomic.Uint64 // queries answered while cached
	src       NodeID
	dist      []float64
	next      []int32
	parent    []int32
	prev, nxt *lruTree
	// Pad to 128 bytes, a malloc size class of whole cache lines, so
	// the hit counters of two trees never share a line.
	_ [24]byte
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

// NewLRUPaths builds a routing table over g's latency metric with room
// for capacity cached trees; non-positive capacity selects
// LRUCapacityForBudget(n, DefaultLRUBudgetBytes).
func NewLRUPaths(g *Graph, capacity int) *LRUPaths {
	n := g.N()
	if capacity <= 0 {
		capacity = LRUCapacityForBudget(n, DefaultLRUBudgetBytes)
	}
	l := &LRUPaths{g: g, cap: capacity}
	l.flushLocked()
	return l
}

// N returns the number of nodes covered.
func (l *LRUPaths) N() int { return l.g.N() }

// Capacity returns the maximum number of cached trees.
func (l *LRUPaths) Capacity() int { return l.cap }

// Stats returns the cumulative query-cache counters: tree hits, misses
// (each miss is one Dijkstra), and evictions. The hits are exact: the
// table's folded total plus every live tree's own counter.
func (l *LRUPaths) Stats() (hits, misses, evictions uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	hits = l.hits
	for i := range l.trees {
		if t := l.trees[i].Load(); t != nil {
			hits += t.hits.Load()
		}
	}
	return hits, l.misses, l.evictions
}

// flushLocked drops every cached tree and stamps the table with the
// graph's current generation; the node count may have changed, so
// scratch and slots are resized by reallocation.
func (l *LRUPaths) flushLocked() {
	for i := range l.trees {
		if t := l.trees[i].Load(); t != nil {
			l.hits += t.hits.Load()
		}
	}
	n := l.g.N()
	l.trees, l.cached = make([]atomic.Pointer[lruTree], n), 0
	l.head, l.tail = nil, nil
	l.scratch = newSPScratch(n, l.g.edges)
	l.aggValid = false
	if l.cap > n && n > 0 {
		l.cap = n
	}
	l.full = l.cap >= n
	if l.down != nil && len(l.down.node) < n {
		l.down.node = append(l.down.node, make([]bool, n-len(l.down.node))...)
	}
	l.gen.Store(l.g.gen)
}

// published returns src's tree without locking when the table is full
// and the tree is cached at the graph's current generation, counting
// the hit; nil sends the caller to the fill path.
func (l *LRUPaths) published(src NodeID) *lruTree {
	if l.gen.Load() != l.g.gen || !l.full {
		return nil
	}
	t := l.trees[src].Load()
	if t != nil {
		t.hits.Add(1)
	}
	return t
}

// treeLocked returns src's shortest-path tree, computing and caching it
// on a miss (evicting the least recently used tree when a bounded
// table is full). The caller holds l.mu.
func (l *LRUPaths) treeLocked(src NodeID) *lruTree {
	if l.gen.Load() != l.g.gen {
		l.flushLocked()
	}
	if t := l.trees[src].Load(); t != nil {
		t.hits.Add(1)
		if !l.full {
			l.touchLocked(t)
		}
		return t
	}
	l.misses++
	var t *lruTree
	if l.cached >= l.cap && l.tail != nil {
		// Reuse the evicted tree's buffers: steady state allocates
		// nothing per miss.
		t = l.tail
		l.removeLocked(t)
		l.evictions++
	} else {
		t = newLRUTree(l.g.N())
	}
	t.src = src
	l.g.dijkstraRows(src, l.down, l.scratch, t.dist, t.next, t.parent)
	l.insertLocked(t)
	return t
}

// insertLocked publishes t as its source's tree, most recently used.
func (l *LRUPaths) insertLocked(t *lruTree) {
	l.trees[t.src].Store(t)
	l.cached++
	if !l.full {
		l.pushFrontLocked(t)
	}
}

// removeLocked drops t from the cache, folding its hits into the
// table's total.
func (l *LRUPaths) removeLocked(t *lruTree) {
	if !l.full {
		l.unlinkLocked(t)
	}
	l.trees[t.src].Store(nil)
	l.cached--
	l.hits += t.hits.Swap(0)
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

// Dist returns the shortest-path length from i to j.
func (l *LRUPaths) Dist(i, j NodeID) float64 {
	if t := l.published(i); t != nil {
		return t.dist[j]
	}
	d, _ := l.lookup(i, j)
	return d
}

// Next returns the first hop out of i on a shortest path toward j, or
// -1 when i == j or j is unreachable.
func (l *LRUPaths) Next(i, j NodeID) NodeID {
	if t := l.published(i); t != nil {
		return NodeID(t.next[j])
	}
	_, next := l.lookup(i, j)
	return next
}

// lookup answers (i, j) under the fill mutex: a bounded table's every
// query, and a full table's first query of each source.
func (l *LRUPaths) lookup(i, j NodeID) (float64, NodeID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.treeLocked(i)
	return t.dist[j], NodeID(t.next[j])
}

// Path returns the node sequence from src to dst (inclusive), walking
// first hops across per-source trees. A cold call can fill up to
// path-length trees; see PathTree for the single-tree variant.
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
// tree — the query shape a bounded table is sized for. The result is a
// valid shortest path of the same length as Path's; under exact
// equal-cost ties the node sequence may differ from the first-hop walk.
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
	if l.gen.Load() != l.g.gen {
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
		if l.trees[s].Load() == nil {
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
			l.g.dijkstraRows(missing[i], down, scratch, t.dist, t.next, t.parent)
			out[i] = t
		}
		return nil
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen.Load() != l.g.gen {
		// The graph mutated mid-warm; the computed trees are stale.
		l.flushLocked()
		return
	}
	for _, t := range out {
		if l.trees[t.src].Load() != nil {
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

// parallelSweepSources is the node count above which the diameter sweep
// fans its Dijkstras out over the worker pool. The evaluation datasets
// (11-36 nodes) stay serial — per-source work there is microseconds and
// scratch reuse beats goroutine overhead — while the network-size
// sweep graphs (hundreds of nodes) split across CPUs.
const parallelSweepSources = 96

// sweepBatch is how many sources each worker solves per round of the
// aggregate sweep before the round's rows are folded in source order.
const sweepBatch = 8

// sweepLocked computes the whole-graph aggregates (max and sum of
// finite off-diagonal distances) with one Dijkstra per uncached source.
// Each round fans sweepBatch sources per worker over the pool (above
// parallelSweepSources nodes), then folds the round's rows serially in
// source order, scanning each in destination order: the same additions
// in the same order at any worker count, so both aggregates are
// deterministic, in O(batch·n) memory. A row served from a cached tree
// costs no Dijkstra, and while the cache has room a solved row is kept
// as its source's tree (never evicting one), so a full table solves
// each tree exactly once. The caller holds l.mu.
func (l *LRUPaths) sweepLocked() {
	if l.gen.Load() != l.g.gen {
		l.flushLocked()
	}
	if l.aggValid && l.aggGen == l.g.gen {
		return
	}
	n := l.g.N()
	workers := 1
	if n >= parallelSweepSources {
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
				if l.trees[i].Load() != nil {
					continue
				}
				t := rows[i-base]
				if t == nil {
					t = newLRUTree(n)
					rows[i-base] = t
				}
				t.src = NodeID(i)
				l.g.dijkstraRows(t.src, l.down, scratch[w], t.dist, t.next, t.parent)
			}
			return nil
		})
		for i := base; i < end; i++ {
			t := l.trees[i].Load()
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
	l.aggValid, l.aggGen = true, l.g.gen
}

// MaxDist returns the largest finite off-diagonal distance (the
// weighted diameter). The first call per graph generation or fault
// event runs the parallel sweep (one Dijkstra per uncached source); the
// scalar is then cached.
func (l *LRUPaths) MaxDist() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweepLocked()
	return l.maxDist
}

// MeanDist returns the mean off-diagonal pairwise distance, cached like
// MaxDist. With includeDiagonal true it divides by |V|^2 (the paper's
// Section V-A convention); otherwise by |V|*(|V|-1).
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
	for i := range l.trees {
		if t := l.trees[i].Load(); t != nil && stale(t) {
			l.removeLocked(t)
		}
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
	if l.gen.Load() != l.g.gen {
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
	if l.gen.Load() != l.g.gen {
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
