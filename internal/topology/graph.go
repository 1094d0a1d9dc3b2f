// Package topology provides the network-topology substrate of the
// evaluation: an undirected weighted graph with latency-annotated links,
// one shortest-path routing table per graph (LRUPaths), extraction of the
// paper's topological parameters (Table III), deterministic random
// generators for network-size sweeps, and the four evaluation datasets
// (Abilene, CERNET, GEANT, US-A) of Table II.
package topology

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// NodeID identifies a node within a Graph; IDs are dense indices assigned
// in insertion order.
type NodeID int

// Node is a router (network aggregation point) with an optional
// geographic position used by the dataset builders to derive propagation
// latencies.
type Node struct {
	ID   NodeID
	Name string
	Lat  float64 // latitude, degrees
	Lon  float64 // longitude, degrees
}

// Edge is an undirected link with a propagation latency in milliseconds.
type Edge struct {
	A, B    NodeID
	Latency float64 // one-way latency, ms
}

// halfEdge is the adjacency-list representation of one direction of an
// Edge.
type halfEdge struct {
	to      NodeID
	latency float64
}

// Graph is an undirected, latency-weighted network topology. The zero
// value is an empty graph ready to use.
type Graph struct {
	name  string
	nodes []Node
	adj   [][]halfEdge
	edges int

	// measured, when non-nil, is an n x n matrix of measured pairwise
	// latencies (ms) between routers, the form in which the paper's
	// datasets report latency. It may disagree with shortest-path sums
	// over the links, exactly as real measurements do.
	measured [][]float64

	// gen stamps the graph's mutation generation: every mutator bumps
	// it, invalidating the cached routing table below. Clones inherit
	// the table (they are structurally identical until mutated), so
	// handing out dataset copies does not re-solve routing, and every
	// run on one graph shares its shortest-path trees. The cache mutex
	// serializes the lazy build; mutators themselves require external
	// synchronization, as does all Graph mutation.
	gen     uint64
	cacheMu sync.Mutex
	trees   *LRUPaths
	treeGen uint64
}

// bump invalidates the cached routing table after a mutation.
func (g *Graph) bump() { g.gen++ }

// Generation returns the graph's mutation generation; mutators
// increment it, and cached routing trees are valid only for the
// generation they were solved at.
func (g *Graph) Generation() uint64 { return g.gen }

// ShortestPathsLatency returns the graph's routing table: the shared
// LRUPaths of latency shortest-path trees, built with the default
// capacity on first use and cached until a mutator bumps the graph's
// generation. The table routes over a frozen copy of the graph's
// structure, so a later mutation of this graph or of a Clone sharing
// the table never changes its answers; every caller, and every Clone
// taken while it is valid, shares one set of trees, so each tree is
// solved once per graph. Fault events must not be applied to the
// shared table: a fault-aware caller builds its own with NewLRUPaths.
func (g *Graph) ShortestPathsLatency() *LRUPaths {
	g.cacheMu.Lock()
	defer g.cacheMu.Unlock()
	if g.trees == nil || g.treeGen != g.gen {
		g.trees, g.treeGen = NewLRUPaths(g.structure(), 0), g.gen
	}
	return g.trees
}

// warmRouteCache solves every tree of the graph's routing table; the
// dataset builders call it once at build time so every handed-out clone
// starts with routing solved.
func (g *Graph) warmRouteCache() {
	g.ShortestPathsLatency().MaxDist()
}

// New returns an empty graph with the given display name.
func New(name string) *Graph {
	return &Graph{name: name}
}

// Name returns the topology's display name.
func (g *Graph) Name() string { return g.name }

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(name string, lat, lon float64) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Lat: lat, Lon: lon})
	g.adj = append(g.adj, nil)
	g.bump()
	return id
}

// grow pre-sizes the node and adjacency slices for n upcoming AddNode
// calls; the deterministic generators use it to avoid append growth
// during the dataset seed search.
func (g *Graph) grow(n int) {
	if cap(g.nodes)-len(g.nodes) < n {
		nodes := make([]Node, len(g.nodes), len(g.nodes)+n)
		copy(nodes, g.nodes)
		g.nodes = nodes
		adj := make([][]halfEdge, len(g.adj), len(g.adj)+n)
		copy(adj, g.adj)
		g.adj = adj
	}
}

// AddEdge inserts an undirected link between a and b with the given
// latency. It rejects self-loops, unknown endpoints, non-positive
// latencies, and duplicate links.
func (g *Graph) AddEdge(a, b NodeID, latency float64) error {
	switch {
	case a == b:
		return fmt.Errorf("topology: self-loop on node %d", a)
	case !g.valid(a) || !g.valid(b):
		return fmt.Errorf("topology: edge (%d,%d) references unknown node", a, b)
	case !(latency > 0):
		return fmt.Errorf("topology: edge (%d,%d) latency must be positive, got %v", a, b, latency)
	case g.HasEdge(a, b):
		return fmt.Errorf("topology: duplicate edge (%d,%d)", a, b)
	}
	g.adj[a] = append(g.adj[a], halfEdge{to: b, latency: latency})
	g.adj[b] = append(g.adj[b], halfEdge{to: a, latency: latency})
	g.edges++
	g.bump()
	return nil
}

// MustAddEdge is AddEdge but panics on error; for dataset literals.
func (g *Graph) MustAddEdge(a, b NodeID, latency float64) {
	if err := g.AddEdge(a, b, latency); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(id NodeID) bool {
	return id >= 0 && int(id) < len(g.nodes)
}

// HasEdge reports whether an undirected link between a and b exists.
func (g *Graph) HasEdge(a, b NodeID) bool {
	if !g.valid(a) {
		return false
	}
	for _, he := range g.adj[a] {
		if he.to == b {
			return true
		}
	}
	return false
}

// N returns the number of nodes (|V|).
func (g *Graph) N() int { return len(g.nodes) }

// Edges returns the number of undirected links. The paper's Table II
// counts each link in both directions; see DirectedEdgeCount.
func (g *Graph) Edges() int { return g.edges }

// DirectedEdgeCount returns 2*Edges(), matching Table II's |E| convention
// (Abilene: 11 nodes, 28 directed edges = 14 undirected links).
func (g *Graph) DirectedEdgeCount() int { return 2 * g.edges }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) (Node, error) {
	if !g.valid(id) {
		return Node{}, fmt.Errorf("topology: unknown node %d", id)
	}
	return g.nodes[id], nil
}

// Nodes returns a copy of all nodes in ID order.
func (g *Graph) Nodes() []Node {
	return append([]Node(nil), g.nodes...)
}

// EdgeList returns all undirected edges with A < B, sorted.
func (g *Graph) EdgeList() []Edge {
	var out []Edge
	for a, hes := range g.adj {
		for _, he := range hes {
			if NodeID(a) < he.to {
				out = append(out, Edge{A: NodeID(a), B: he.to, Latency: he.latency})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Neighbors returns the IDs adjacent to id, in insertion order.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	if !g.valid(id) {
		return nil
	}
	out := make([]NodeID, len(g.adj[id]))
	for i, he := range g.adj[id] {
		out[i] = he.to
	}
	return out
}

// EdgeLatency returns the latency of link (a, b), or an error if absent.
func (g *Graph) EdgeLatency(a, b NodeID) (float64, error) {
	if g.valid(a) {
		for _, he := range g.adj[a] {
			if he.to == b {
				return he.latency, nil
			}
		}
	}
	return 0, fmt.Errorf("topology: no edge (%d,%d)", a, b)
}

// Connected reports whether every node is reachable from node 0. Empty
// and single-node graphs are connected.
func (g *Graph) Connected() bool {
	if len(g.nodes) <= 1 {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, he := range g.adj[v] {
			if !seen[he.to] {
				seen[he.to] = true
				count++
				stack = append(stack, he.to)
			}
		}
	}
	return count == len(g.nodes)
}

// ScaleLatencies multiplies every link latency by factor (> 0). The
// dataset builders use it to calibrate synthesized graphs against the
// paper's reported parameters.
func (g *Graph) ScaleLatencies(factor float64) error {
	if !(factor > 0) {
		return fmt.Errorf("topology: scale factor must be positive, got %v", factor)
	}
	for a := range g.adj {
		for i := range g.adj[a] {
			g.adj[a][i].latency *= factor
		}
	}
	g.bump()
	return nil
}

// RemoveEdge deletes the undirected link between a and b. It fails if
// the link does not exist. Connectivity is not checked; callers that
// need it should verify with Connected.
func (g *Graph) RemoveEdge(a, b NodeID) error {
	if !g.HasEdge(a, b) {
		return fmt.Errorf("topology: no edge (%d,%d) to remove", a, b)
	}
	remove := func(from, to NodeID) {
		hes := g.adj[from]
		for i, he := range hes {
			if he.to == to {
				g.adj[from] = append(hes[:i], hes[i+1:]...)
				return
			}
		}
	}
	remove(a, b)
	remove(b, a)
	g.edges--
	g.bump()
	return nil
}

// SetMeasuredLatencies attaches an n x n measured pairwise latency
// matrix. The matrix must be square with dimension N(), zero on the
// diagonal, symmetric, and positive off the diagonal.
func (g *Graph) SetMeasuredLatencies(m [][]float64) error {
	n := len(g.nodes)
	if len(m) != n {
		return fmt.Errorf("topology: measured matrix has %d rows, want %d", len(m), n)
	}
	for i := range m {
		if len(m[i]) != n {
			return fmt.Errorf("topology: measured matrix row %d has %d columns, want %d", i, len(m[i]), n)
		}
		for j := range m[i] {
			switch {
			case i == j && m[i][j] != 0:
				return fmt.Errorf("topology: measured matrix diagonal (%d,%d) must be 0, got %v", i, j, m[i][j])
			case i != j && !(m[i][j] > 0):
				return fmt.Errorf("topology: measured latency (%d,%d) must be positive, got %v", i, j, m[i][j])
			case m[i][j] != m[j][i]:
				return fmt.Errorf("topology: measured matrix asymmetric at (%d,%d)", i, j)
			}
		}
	}
	g.measured = make([][]float64, n)
	for i := range m {
		g.measured[i] = append([]float64(nil), m[i]...)
	}
	g.bump()
	return nil
}

// MeasuredLatencies returns a copy of the measured pairwise latency
// matrix, or nil if none is attached.
func (g *Graph) MeasuredLatencies() [][]float64 {
	if g.measured == nil {
		return nil
	}
	out := make([][]float64, len(g.measured))
	for i := range g.measured {
		out[i] = append([]float64(nil), g.measured[i]...)
	}
	return out
}

// TransformLatencies replaces every link latency l with f(l). It fails
// (leaving the graph unchanged) if any transformed latency would be
// non-positive.
func (g *Graph) TransformLatencies(f func(float64) float64) error {
	type update struct {
		a, i int
		v    float64
	}
	var updates []update
	for a := range g.adj {
		for i := range g.adj[a] {
			v := f(g.adj[a][i].latency)
			if !(v > 0) {
				return fmt.Errorf("topology: transform yields non-positive latency %v", v)
			}
			updates = append(updates, update{a, i, v})
		}
	}
	for _, u := range updates {
		g.adj[u.a][u.i].latency = u.v
	}
	g.bump()
	return nil
}

// Clone returns a deep copy of the graph, including any measured
// latency matrix. The copy shares the source's routing table (it
// describes the identical structure); a later mutation of either graph
// invalidates only that graph's cache, so clones of the memoized
// datasets start with routing solved for free.
func (g *Graph) Clone() *Graph {
	c := g.structure()
	if g.measured != nil {
		c.measured = make([][]float64, len(g.measured))
		for i := range g.measured {
			c.measured[i] = append([]float64(nil), g.measured[i]...)
		}
	}
	g.cacheMu.Lock()
	c.gen = g.gen
	c.trees, c.treeGen = g.trees, g.treeGen
	g.cacheMu.Unlock()
	return c
}

// structure returns a copy of the graph's nodes and links alone: no
// measured matrix and no routing caches.
func (g *Graph) structure() *Graph {
	c := &Graph{name: g.name, edges: g.edges}
	c.nodes = append([]Node(nil), g.nodes...)
	c.adj = make([][]halfEdge, len(g.adj))
	for i, hes := range g.adj {
		c.adj[i] = append([]halfEdge(nil), hes...)
	}
	return c
}

// GreatCircleKm returns the haversine distance in kilometers between two
// coordinates.
func GreatCircleKm(lat1, lon1, lat2, lon2 float64) float64 {
	const earthRadiusKm = 6371.0
	toRad := func(deg float64) float64 { return deg * math.Pi / 180 }
	dLat := toRad(lat2 - lat1)
	dLon := toRad(lon2 - lon1)
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(toRad(lat1))*math.Cos(toRad(lat2))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// PropagationMs converts a fiber-path distance in kilometers to one-way
// propagation latency in milliseconds, using the standard ~2/3 c speed of
// light in fiber (~5 microseconds per km).
func PropagationMs(km float64) float64 { return km * 0.005 }
