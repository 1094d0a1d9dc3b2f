package topology

import (
	"fmt"
	"math"
)

// DenseAutoThreshold is the router count at which sim.ResolveShards
// auto-shards a run: below it (every calibrated dataset) the serial
// engine runs, at or above it min(8, GOMAXPROCS) shards over a
// PartitionGraph split.
const DenseAutoThreshold = 1024

// Partition is a deterministic assignment of every node to one of
// Parts contiguous regions, produced by PartitionGraph. It also
// carries the two cut statistics the sharded simulator needs: the
// minimum latency over any cut edge (the conservative-lookahead bound
// — no cross-region event can arrive sooner than this) and the number
// of cut edges (a proxy for cross-shard traffic volume).
type Partition struct {
	// Parts is the number of regions actually produced. It can be
	// lower than requested when the graph has fewer nodes than the
	// requested part count.
	Parts int
	// Of maps each node to its part in [0, Parts).
	Of []int32
	// CutLatency is the minimum latency over edges whose endpoints
	// land in different parts, or +Inf when no edge is cut (Parts==1,
	// or each connected component fits entirely inside one part).
	CutLatency float64
	// CutEdges counts undirected edges crossing a part boundary.
	CutEdges int
}

// PartitionGraph splits g into the requested number of parts using a
// deterministic greedy min-edge-cut accretion: each part grows from the
// lowest-numbered unassigned node by repeatedly absorbing the frontier
// node that improves the running cut the most — the node maximizing
// gain − external = 2·gain − degree, where gain counts its edges into
// the region (ties to the smaller node ID) — until the part reaches its
// quota ⌈remaining/partsLeft⌉. Scoring by net cut improvement rather
// than raw gain matters on tree-like graphs, where every frontier node
// has gain 1 and raw-gain greedy degenerates into an ID-order BFS that
// shreds subtrees; with the external term the growth dives into one
// subtree at a time, so for hierarchical AS×POP graphs the regions
// follow subtrees and the cut falls on the few AS uplinks rather than
// through the POP fan-outs.
//
// The algorithm uses no randomness and visits nodes in ID order, so the
// result is a pure function of (graph, parts): identical across runs,
// GOMAXPROCS settings, and platforms. Disconnected graphs are handled
// by restarting growth from the lowest-numbered unassigned node
// whenever the frontier empties before the quota is met.
func PartitionGraph(g *Graph, parts int) (*Partition, error) {
	if g == nil {
		return nil, fmt.Errorf("topology: nil graph")
	}
	if parts < 1 {
		return nil, fmt.Errorf("topology: part count %d < 1", parts)
	}
	n := g.N()
	if parts > n && n > 0 {
		parts = n
	}
	p := &Partition{Parts: parts, Of: make([]int32, n), CutLatency: math.Inf(1)}
	if n == 0 {
		p.Parts = parts
		return p, nil
	}
	for i := range p.Of {
		p.Of[i] = -1
	}

	// gain[v] counts v's edges into the part currently growing; the
	// candidate heap orders the frontier by (2·gain−degree desc, id
	// asc). Gains only grow while a part grows, so a node's score only
	// rises and stale heap entries are skipped by re-checking the score
	// at pop time (lazy deletion).
	gain := make([]int32, n)
	score := func(v NodeID) int32 { return 2*gain[v] - int32(len(g.adj[v])) }
	touched := make([]NodeID, 0, n)
	var frontier candHeap

	assigned := 0
	lowest := NodeID(0) // cursor over unassigned node IDs; only advances
	for part := 0; part < parts; part++ {
		remaining := n - assigned
		if remaining == 0 {
			break
		}
		quota := (remaining + parts - part - 1) / (parts - part)
		// Reset per-part growth state.
		for _, v := range touched {
			gain[v] = 0
		}
		touched = touched[:0]
		frontier = frontier[:0]

		size := 0
		for size < quota {
			var pick NodeID = -1
			for len(frontier) > 0 {
				c := frontier.pop()
				if p.Of[c.id] < 0 && score(c.id) == c.score {
					pick = c.id
					break
				}
			}
			if pick < 0 {
				// Frontier exhausted (fresh part, or a disconnected
				// component ran out): seed from the lowest unassigned ID.
				for p.Of[lowest] >= 0 {
					lowest++
				}
				pick = lowest
			}
			p.Of[pick] = int32(part)
			assigned++
			size++
			for _, he := range g.adj[pick] {
				w := he.to
				if p.Of[w] >= 0 {
					continue
				}
				if gain[w] == 0 {
					touched = append(touched, w)
				}
				gain[w]++
				frontier.push(cand{score: score(w), id: w})
			}
		}
	}

	// Cut statistics over the undirected edge set.
	for a := range g.adj {
		for _, he := range g.adj[a] {
			if NodeID(a) < he.to && p.Of[a] != p.Of[he.to] {
				p.CutEdges++
				if he.latency < p.CutLatency {
					p.CutLatency = he.latency
				}
			}
		}
	}
	return p, nil
}

// cand is a frontier candidate for greedy part growth.
type cand struct {
	score int32 // 2·gain − degree at push time
	id    NodeID
}

// candHeap is a max-heap over (score, -id): highest score first,
// smaller node ID on ties. Stale entries (score no longer current) are
// filtered by the caller at pop time.
type candHeap []cand

func (h candHeap) less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].id < h[j].id
}

func (h *candHeap) push(c cand) {
	*h = append(*h, c)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *candHeap) pop() cand {
	q := *h
	top := q[0]
	m := len(q) - 1
	q[0] = q[m]
	q = q[:m]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < m && q.less(l, best) {
			best = l
		}
		if r < m && q.less(r, best) {
			best = r
		}
		if best == i {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	return top
}
