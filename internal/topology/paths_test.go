package topology

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// line builds a path graph 0-1-2-...-(n-1) with unit latencies.
func line(n int) *Graph {
	g := New("line")
	for i := 0; i < n; i++ {
		g.AddNode("", 0, 0)
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), 1)
	}
	return g
}

func TestShortestPathsLatencyTriangle(t *testing.T) {
	g := triangle(t) // edges: 0-1 (1), 1-2 (2), 0-2 (10)
	sp := g.ShortestPathsLatency()
	tests := []struct {
		a, b NodeID
		want float64
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 3}, // via node 1, not the direct 10ms link
		{1, 2, 2}, {2, 0, 3},
	}
	for _, tt := range tests {
		if got := sp.Dist(tt.a, tt.b); got != tt.want {
			t.Errorf("dist(%d,%d) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
	// First hop from 0 toward 2 must be node 1.
	if sp.Next(0, 2) != 1 {
		t.Errorf("Next(0,2) = %d, want 1", sp.Next(0, 2))
	}
	path, err := sp.Path(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0] != 0 || path[1] != 1 || path[2] != 2 {
		t.Errorf("Path(0,2) = %v, want [0 1 2]", path)
	}
}

func TestShortestPathsHops(t *testing.T) {
	g := triangle(t)
	sp := g.hopAPSP()
	// By hops, 0->2 is direct (1 hop) even though it is 10ms.
	if got := sp.Dist(0, 2); got != 1 {
		t.Errorf("hop dist(0,2) = %v, want 1", got)
	}
}

func TestPathEdgeCases(t *testing.T) {
	g := line(4)
	sp := g.ShortestPathsLatency()
	p, err := sp.Path(2, 2)
	if err != nil || len(p) != 1 || p[0] != 2 {
		t.Errorf("Path to self = %v, %v", p, err)
	}
	if _, err := sp.Path(-1, 2); err == nil {
		t.Error("negative src should fail")
	}
	if _, err := sp.Path(0, 99); err == nil {
		t.Error("out-of-range dst should fail")
	}
}

func TestUnreachable(t *testing.T) {
	g := New("disc")
	g.AddNode("a", 0, 0)
	g.AddNode("b", 0, 0)
	sp := g.ShortestPathsLatency()
	if !math.IsInf(sp.Dist(0, 1), 1) {
		t.Errorf("dist between components = %v, want +Inf", sp.Dist(0, 1))
	}
	if _, err := sp.Path(0, 1); err == nil {
		t.Error("path between components should fail")
	}
	if sp.MaxDist() != 0 {
		t.Errorf("MaxDist ignores Inf, got %v", sp.MaxDist())
	}
}

func TestMeanDistConventions(t *testing.T) {
	g := line(3) // pairwise hop distances: (0,1)=1 (0,2)=2 (1,2)=1, doubled ordered
	sp := g.hopAPSP()
	// Ordered sum = 2*(1+2+1) = 8; off-diag pairs = 6, n^2 = 9.
	if got := sp.MeanDist(false); math.Abs(got-8.0/6) > 1e-12 {
		t.Errorf("MeanDist(false) = %v, want %v", got, 8.0/6)
	}
	if got := sp.MeanDist(true); math.Abs(got-8.0/9) > 1e-12 {
		t.Errorf("MeanDist(true) = %v, want %v", got, 8.0/9)
	}
}

func TestLinePathLengths(t *testing.T) {
	g := line(6)
	sp := g.ShortestPathsLatency()
	if got := sp.Dist(0, 5); got != 5 {
		t.Errorf("end-to-end = %v, want 5", got)
	}
	if got := sp.MaxDist(); got != 5 {
		t.Errorf("MaxDist = %v, want 5", got)
	}
	path, err := sp.Path(0, 5)
	if err != nil || len(path) != 6 {
		t.Errorf("Path(0,5) = %v, %v", path, err)
	}
}

// TestAPSPSymmetry property: on random connected graphs, shortest-path
// distances are symmetric and satisfy the triangle inequality.
func TestAPSPSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		g, err := RandomConnected(12, 20, 1, 10, seed)
		if err != nil {
			return false
		}
		sp := g.ShortestPathsLatency()
		n := g.N()
		for i := NodeID(0); int(i) < n; i++ {
			for j := NodeID(0); int(j) < n; j++ {
				if math.Abs(sp.Dist(i, j)-sp.Dist(j, i)) > 1e-9 {
					return false
				}
				for k := NodeID(0); int(k) < n; k++ {
					if sp.Dist(i, j) > sp.Dist(i, k)+sp.Dist(k, j)+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPathLatencyMatchesDist property: walking the Next matrix
// accumulates exactly the reported distance.
func TestPathLatencyMatchesDist(t *testing.T) {
	g, err := RandomConnected(15, 30, 1, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	sp := g.ShortestPathsLatency()
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if i == j {
				continue
			}
			path, err := sp.Path(NodeID(i), NodeID(j))
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for k := 0; k+1 < len(path); k++ {
				lat, err := g.EdgeLatency(path[k], path[k+1])
				if err != nil {
					t.Fatalf("path uses missing edge: %v", err)
				}
				sum += lat
			}
			if math.Abs(sum-sp.Dist(NodeID(i), NodeID(j))) > 1e-9 {
				t.Fatalf("path(%d,%d) latency %v != dist %v", i, j, sum, sp.Dist(NodeID(i), NodeID(j)))
			}
		}
	}
}

func BenchmarkAPSPLatency(b *testing.B) {
	g, err := RandomConnected(100, 300, 1, 20, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh table per iteration, so every sweep solves every tree.
		NewLRUPaths(g, 0).MaxDist()
	}
}

// TestAPSPCacheInvalidation checks the graph's generation-stamped
// routing table: every mutator replaces it, an unchanged graph returns
// the same table, the table's answers equal a fresh oracle solve
// exactly, and clones share the table until they diverge.
func TestAPSPCacheInvalidation(t *testing.T) {
	g, err := RandomConnected(12, 20, 1, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		lat := g.ShortestPathsLatency()
		order := make([]int, g.N())
		for i := range order {
			order[i] = i
		}
		checkLRUMatches(t, stage, lat, g.apsp(), order)
		if g.ShortestPathsLatency() != lat {
			t.Fatalf("%s: unchanged graph rebuilt its routing table", stage)
		}
	}

	check("initial")
	prev := g.ShortestPathsLatency()

	m := make([][]float64, g.N())
	for i := range m {
		m[i] = make([]float64, g.N())
		for j := range m[i] {
			if i != j {
				m[i][j] = 1 + math.Abs(float64(i-j))
			}
		}
	}
	if err := g.SetMeasuredLatencies(m); err != nil {
		t.Fatal(err)
	}
	check("SetMeasuredLatencies")

	if err := g.ScaleLatencies(2.5); err != nil {
		t.Fatal(err)
	}
	if g.ShortestPathsLatency() == prev {
		t.Fatal("ScaleLatencies did not invalidate the cache")
	}
	check("ScaleLatencies")

	if err := g.TransformLatencies(func(l float64) float64 { return l + 1 }); err != nil {
		t.Fatal(err)
	}
	check("TransformLatencies")

	e := g.EdgeList()[0]
	if err := g.RemoveEdge(e.A, e.B); err != nil {
		t.Fatal(err)
	}
	check("RemoveEdge")

	id := g.AddNode("late", 0, 0)
	check("AddNode") // disconnected node: Inf rows must match fresh

	if err := g.AddEdge(id, 0, 4); err != nil {
		t.Fatal(err)
	}
	check("AddEdge")

	// Clones share the cache until they diverge.
	shared := g.ShortestPathsLatency()
	c := g.Clone()
	if c.ShortestPathsLatency() != shared {
		t.Fatal("clone does not share the routing table")
	}
	if err := c.ScaleLatencies(3); err != nil {
		t.Fatal(err)
	}
	if c.ShortestPathsLatency() == shared {
		t.Fatal("mutated clone still serves the shared routing table")
	}
	if g.ShortestPathsLatency() != shared {
		t.Fatal("mutating the clone invalidated the original's cache")
	}
}

// TestConcurrentDatasetAccess hammers the memoized datasets from many
// goroutines — cloning, reading the shared routing tables, and mutating
// private clones — and relies on -race to flag unsynchronized access.
func TestConcurrentDatasetAccess(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, g := range All() {
				lat := g.ShortestPathsLatency()
				_ = lat.MaxDist()
				_ = lat.Next(0, NodeID(g.N()-1))
				if err := g.ScaleLatencies(2); err != nil {
					t.Error(err)
					return
				}
				if g.ShortestPathsLatency() == lat {
					t.Error("mutated dataset clone kept its shared cache")
					return
				}
			}
		}()
	}
	wg.Wait()
}
