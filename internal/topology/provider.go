package topology

import "fmt"

// PathProvider is the routing-backend interface behind which the data
// plane and the experiment harness query shortest paths. The dense
// all-pairs matrix (*APSP) satisfies it exactly as before; LRUPaths
// trades precompute and memory for scale, and is the table a
// fault-aware plane routes around outages with:
//
//	backend    memory    precompute        Dist/Next
//	dense      16·n² B   n Dijkstras       O(1)
//	lru        16·n·k B  per-miss Dijkstra O(1) hit / O(m log n) miss, k cached trees
//
// Both are exact. Dist returns the shortest-path length from i to j (0
// on the diagonal, +Inf if unreachable); Next the first hop out of i
// toward j (-1 on the diagonal or if unreachable); Path the full node
// sequence; MaxDist the weighted diameter and MeanDist the mean
// pairwise distance.
type PathProvider interface {
	N() int
	Dist(i, j NodeID) float64
	Next(i, j NodeID) NodeID
	Path(src, dst NodeID) ([]NodeID, error)
	MaxDist() float64
	MeanDist(includeDiagonal bool) float64
}

// Backend selects a routing backend implementation.
type Backend int

const (
	// BackendAuto picks BackendDense below DenseAutoThreshold nodes and
	// BackendLRU at or above it — small calibrated datasets keep the
	// byte-identical dense fast path, large generated graphs never
	// materialize an O(n²) matrix.
	BackendAuto Backend = iota
	// BackendDense is the flat all-pairs matrix: 16·n² bytes, exact,
	// O(1) queries.
	BackendDense
	// BackendLRU answers from an LRU of per-source shortest-path trees,
	// each filled by one on-demand Dijkstra: O(n·cap) memory, exact, and
	// bit-identical to the dense rows (see LRUPaths).
	BackendLRU
)

// DenseAutoThreshold is the node count at which BackendAuto switches
// from the dense matrix to the LRU backend. At 1024 nodes the dense
// matrix costs 16 MiB and one full APSP precompute; past it the
// quadratic wall dominates (10⁴ nodes ≈ 1.6 GB, 10⁵ ≈ 160 GB).
const DenseAutoThreshold = 1024

// String returns the backend's flag name.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendDense:
		return "dense"
	case BackendLRU:
		return "lru"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend resolves a -routing flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "dense":
		return BackendDense, nil
	case "lru":
		return BackendLRU, nil
	default:
		return 0, fmt.Errorf("topology: unknown routing backend %q (want auto, dense, or lru)", s)
	}
}

// Resolve maps BackendAuto to the concrete backend chosen for an n-node
// graph; concrete backends return themselves.
func (b Backend) Resolve(n int) Backend {
	if b != BackendAuto {
		return b
	}
	if n < DenseAutoThreshold {
		return BackendDense
	}
	return BackendLRU
}

// NewPathProvider returns the selected routing backend over g's latency
// metric, owned by the graph and shared by every caller: BackendDense
// the cached APSP matrix, BackendLRU the cached tree table with default
// sizing (see Graph.ShortestPathsLatency, Graph.ShortestPathTrees).
// Build LRUPaths directly to tune its capacity or to apply faults.
func NewPathProvider(g *Graph, b Backend) (PathProvider, error) {
	switch b.Resolve(g.N()) {
	case BackendDense:
		return g.ShortestPathsLatency(), nil
	case BackendLRU:
		return g.ShortestPathTrees(), nil
	default:
		return nil, fmt.Errorf("topology: unknown routing backend %d", int(b))
	}
}
