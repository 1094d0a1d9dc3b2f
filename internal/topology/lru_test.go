package topology

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// equivalenceGraphs returns the graphs the table-vs-oracle suite
// runs over: all four calibrated datasets plus random and Waxman
// instances, covering both hand-calibrated and continuous latencies.
func equivalenceGraphs(t *testing.T) []*Graph {
	t.Helper()
	graphs := All()
	rnd, err := RandomConnected(60, 140, 1, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	wax, err := Waxman("wax-equiv", 80, 200, 3000, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	return append(graphs, rnd, wax)
}

// midHierarchy returns a generated hierarchy of 124 routers: past the
// 64-node bit-parallel hop pass, and small enough to compare against
// the oracle pair by pair.
func midHierarchy(t *testing.T) *Graph {
	t.Helper()
	g, err := Hierarchical("mid-hier", []HierLevel{
		{Fanout: 4, MeanLatency: 20, Redundancy: 1},
		{Fanout: 5, MeanLatency: 5, Redundancy: 1},
		{Fanout: 5, MeanLatency: 1},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() <= 64 {
		t.Fatalf("hierarchy has %d routers, want more than 64", g.N())
	}
	return g
}

// queryConcurrently has 8 goroutines each query Dist and Next for every
// ordered pair of l's graph, sources in a per-goroutine order, and
// checks every answer against the oracle and that Stats counts each
// query exactly once, as a hit or as a miss. It returns the misses the
// queries cost.
func queryConcurrently(t *testing.T, l *LRUPaths, ref *APSP) uint64 {
	t.Helper()
	const workers = 8
	n := l.N()
	hits0, misses0, _ := l.Stats()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range rand.New(rand.NewSource(int64(w))).Perm(n) {
				for d := 0; d < n; d++ {
					si, di := NodeID(s), NodeID(d)
					if l.Dist(si, di) != ref.Dist(si, di) || l.Next(si, di) != ref.Next(si, di) {
						t.Errorf("worker %d: (%d,%d) differs from the oracle", w, s, d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	hits, misses, _ := l.Stats()
	if got, want := hits+misses-hits0-misses0, uint64(workers*n*n*2); got != want {
		t.Errorf("Stats counted %d hits and misses, want one per query: %d", got, want)
	}
	return misses - misses0
}

// TestFullTableConcurrentColdFills queries a freshly built graph-owned
// table, before any sweep, from 8 goroutines at once: cold fills under
// the fill mutex race lock-free reads of published trees. Every answer
// equals the oracle, every query is counted, and each tree is solved
// exactly once.
func TestFullTableConcurrentColdFills(t *testing.T) {
	g := midHierarchy(t)
	l := g.ShortestPathsLatency()
	if l.Capacity() < g.N() {
		t.Fatalf("graph-owned table holds %d trees, want all %d", l.Capacity(), g.N())
	}
	if size := unsafe.Sizeof(lruTree{}); size%64 != 0 {
		t.Errorf("a tree header is %d bytes, want whole 64-byte cache lines", size)
	}
	if misses := queryConcurrently(t, l, g.apsp()); misses != uint64(g.N()) {
		t.Errorf("cold queries solved %d trees, want each of the %d once", misses, g.N())
	}
}

// TestBoundedTableConcurrentQueries is the same race on a table of 3
// trees, where every query takes the mutex and misses recycle evicted
// trees' buffers.
func TestBoundedTableConcurrentQueries(t *testing.T) {
	g := midHierarchy(t)
	l := NewLRUPaths(g, 3)
	if misses := queryConcurrently(t, l, g.apsp()); misses <= uint64(g.N()) {
		t.Errorf("a 3-tree table solved %d trees for %d sources, want evictions to force re-solves", misses, g.N())
	}
	if _, _, evictions := l.Stats(); evictions == 0 {
		t.Error("a 3-tree table never evicted")
	}
}

// TestLRUEquivalence asserts the routing table is bit-identical to the
// oracle — Dist, Next, Path, MaxDist, MeanDist — on every calibrated
// dataset plus random and Waxman graphs, for every ordered pair.
// Bit-identical means ==, not within-epsilon: both run the same
// Dijkstra kernel over the same adjacency order.
func TestLRUEquivalence(t *testing.T) {
	for _, g := range equivalenceGraphs(t) {
		dense := g.apsp()
		lru := NewLRUPaths(g, 0)
		n := g.N()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				si, sj := NodeID(i), NodeID(j)
				if d, want := lru.Dist(si, sj), dense.Dist(si, sj); d != want {
					t.Fatalf("%s: lru.Dist(%d,%d) = %v, oracle %v", g.Name(), i, j, d, want)
				}
				if nx, want := lru.Next(si, sj), dense.Next(si, sj); nx != want {
					t.Fatalf("%s: lru.Next(%d,%d) = %v, oracle %v", g.Name(), i, j, nx, want)
				}
				lp, lerr := lru.Path(si, sj)
				dp, derr := dense.Path(si, sj)
				if (lerr == nil) != (derr == nil) {
					t.Fatalf("%s: Path(%d,%d) err lru=%v oracle=%v", g.Name(), i, j, lerr, derr)
				}
				if !reflect.DeepEqual(lp, dp) {
					t.Fatalf("%s: lru.Path(%d,%d) = %v, oracle %v", g.Name(), i, j, lp, dp)
				}
			}
		}
		if got, want := lru.MaxDist(), dense.MaxDist(); got != want {
			t.Errorf("%s: lru.MaxDist = %v, oracle %v", g.Name(), got, want)
		}
		for _, diag := range []bool{false, true} {
			if got, want := lru.MeanDist(diag), dense.MeanDist(diag); got != want {
				t.Errorf("%s: lru.MeanDist(%v) = %v, oracle %v", g.Name(), diag, got, want)
			}
		}
	}
}

// TestShortestPathTreesShared checks the graph-owned tree table: one
// table per graph generation, shared by every caller and by clones,
// replaced on mutation, and frozen to the structure it was built for, so
// mutating the graph or a clone never changes the answers of a table
// already handed out.
func TestShortestPathTreesShared(t *testing.T) {
	g, err := Waxman("wax-shared", 40, 100, 3000, 0.4, 9)
	if err != nil {
		t.Fatal(err)
	}
	ref := g.apsp()
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	shared := g.ShortestPathsLatency()
	if g.ShortestPathsLatency() != shared {
		t.Fatal("a second call built a second table")
	}
	c := g.Clone()
	if c.ShortestPathsLatency() != shared {
		t.Fatal("a clone does not share its source's table")
	}
	checkLRUMatches(t, "shared", shared, ref, order)

	e := g.EdgeList()[0]
	if err := c.RemoveEdge(e.A, e.B); err != nil {
		t.Fatal(err)
	}
	if c.ShortestPathsLatency() == shared {
		t.Fatal("a mutated clone still routes with the shared table")
	}
	if err := g.ScaleLatencies(2); err != nil {
		t.Fatal(err)
	}
	if g.ShortestPathsLatency() == shared {
		t.Fatal("a mutated graph still routes with its old table")
	}
	checkLRUMatches(t, "after both graphs mutated", shared, ref, order)
	checkLRUMatches(t, "rebuilt", g.ShortestPathsLatency(), g.apsp(), order)
}

// TestShortestPathTreesConcurrent queries one graph's table from many
// goroutines through clones that share it: a cold diameter sweep,
// misses and hits at once, while each goroutine also detaches its own
// clone by mutating it. -race flags unsynchronized access, and every
// answer must equal the oracle.
func TestShortestPathTreesConcurrent(t *testing.T) {
	g, err := RandomConnected(120, 300, 1, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	dense := g.apsp()
	shared := g.ShortestPathsLatency()
	n := g.N()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := g.Clone()
			trees := c.ShortestPathsLatency()
			if trees != shared {
				t.Error("a clone does not share its source's table")
				return
			}
			if w%2 == 0 && trees.MaxDist() != dense.MaxDist() {
				t.Errorf("worker %d: MaxDist differs from the oracle", w)
			}
			for i := 0; i < n; i++ {
				s, d := NodeID((i*7+w)%n), NodeID(i)
				if trees.Next(s, d) != dense.Next(s, d) || trees.Dist(s, d) != dense.Dist(s, d) {
					t.Errorf("worker %d: (%d,%d) differs from the oracle", w, s, d)
					return
				}
			}
			if err := c.ScaleLatencies(2); err != nil {
				t.Error(err)
				return
			}
			if c.ShortestPathsLatency() == shared {
				t.Errorf("worker %d: a mutated clone kept the shared table", w)
			}
		}()
	}
	wg.Wait()
}

// TestLRUSweepMatchesDense runs the diameter sweep on graphs large
// enough to fan out, at several pool widths and capacities, with and
// without faults. MaxDist and MeanDist must equal the oracle scan of the
// same (alive) graph bit for bit; the sweep keeps solved rows only while
// the cache has room and never evicts; and a table with room for every
// source then answers every query without another Dijkstra.
func TestLRUSweepMatchesDense(t *testing.T) {
	rnd, err := RandomConnected(150, 400, 1, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	wax, err := Waxman("wax-sweep", 130, 300, 3000, 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range []*Graph{rnd, wax} {
		n := g.N()
		if n < parallelSweepSources {
			t.Fatalf("%s: %d nodes will not fan out", g.Name(), n)
		}
		e := g.EdgeList()[3]
		faulted := refAlive(t, g, map[NodeID]bool{7: true}, map[[2]NodeID]bool{LinkKey(e.A, e.B): true})
		for _, procs := range []int{1, 3} {
			runtime.GOMAXPROCS(procs)
			for _, capacity := range []int{n, 7} {
				for _, faults := range []bool{false, true} {
					stage := fmt.Sprintf("%s procs=%d cap=%d faults=%v", g.Name(), procs, capacity, faults)
					l := NewLRUPaths(g, capacity)
					want := g.apsp()
					if faults {
						l.SetNode(7, false)
						l.SetLink(e.A, e.B, false)
						want = faulted
					}
					l.Warm([]NodeID{2, 90}, 1) // rows the sweep serves from cache
					if got := l.MaxDist(); got != want.MaxDist() {
						t.Errorf("%s: MaxDist = %v, oracle %v", stage, got, want.MaxDist())
					}
					for _, diag := range []bool{false, true} {
						if got := l.MeanDist(diag); got != want.MeanDist(diag) {
							t.Errorf("%s: MeanDist(%v) = %v, oracle %v", stage, diag, got, want.MeanDist(diag))
						}
					}
					_, misses, evictions := l.Stats()
					if int(misses) != capacity || evictions != 0 {
						t.Errorf("%s: sweep left %d trees solved and %d evicted, want %d and 0", stage, misses, evictions, capacity)
					}
					if capacity == n {
						checkLRUMatches(t, stage, l, want, rand.New(rand.NewSource(1)).Perm(n))
						if _, after, _ := l.Stats(); after != misses {
							t.Errorf("%s: queries after the sweep solved %d more trees, want 0", stage, after-misses)
						}
					}
				}
			}
		}
	}
}

// TestLRUEvictionStaysExact caps the cache far below the source count
// and checks queries remain bit-identical to the oracle while evictions
// actually happen.
func TestLRUEvictionStaysExact(t *testing.T) {
	g, err := Waxman("wax-evict", 50, 120, 3000, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	dense := g.apsp()
	lru := NewLRUPaths(g, 4)
	if lru.Capacity() != 4 {
		t.Fatalf("capacity = %d, want 4", lru.Capacity())
	}
	n := g.N()
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			j := (i*7 + round) % n
			if d, want := lru.Dist(NodeID(i), NodeID(j)), dense.Dist(NodeID(i), NodeID(j)); d != want {
				t.Fatalf("Dist(%d,%d) = %v, want %v", i, j, d, want)
			}
		}
	}
	hits, misses, evictions := lru.Stats()
	if misses == 0 || evictions == 0 {
		t.Errorf("expected misses and evictions with capacity 4 over %d sources: hits=%d misses=%d evictions=%d",
			n, hits, misses, evictions)
	}
}

// TestLRUInvalidationOnMutation is the regression test for the
// generation-bump satellite: after warm queries, every Graph mutator
// must invalidate the LRU cache so the next query sees fresh distances.
func TestLRUInvalidationOnMutation(t *testing.T) {
	build := func() *Graph {
		g := New("mut")
		for i := 0; i < 4; i++ {
			g.AddNode("", 0, 0)
		}
		g.MustAddEdge(0, 1, 10)
		g.MustAddEdge(1, 2, 10)
		g.MustAddEdge(2, 3, 10)
		return g
	}

	t.Run("ScaleLatencies", func(t *testing.T) {
		g := build()
		lru := NewLRUPaths(g, 0)
		if d := lru.Dist(0, 3); d != 30 {
			t.Fatalf("warm Dist = %v, want 30", d)
		}
		if err := g.ScaleLatencies(2); err != nil {
			t.Fatal(err)
		}
		if d := lru.Dist(0, 3); d != 60 {
			t.Errorf("post-scale Dist = %v, want 60 (stale tree served)", d)
		}
	})

	t.Run("AddEdge", func(t *testing.T) {
		g := build()
		lru := NewLRUPaths(g, 0)
		lru.Warm([]NodeID{0, 1, 2, 3}, 2)
		if d := lru.Dist(0, 3); d != 30 {
			t.Fatalf("warm Dist = %v, want 30", d)
		}
		g.MustAddEdge(0, 3, 5)
		if d := lru.Dist(0, 3); d != 5 {
			t.Errorf("post-AddEdge Dist = %v, want 5 (stale tree served)", d)
		}
		if nx := lru.Next(0, 3); nx != 3 {
			t.Errorf("post-AddEdge Next = %v, want 3", nx)
		}
	})

	t.Run("RemoveEdge", func(t *testing.T) {
		g := build()
		g.MustAddEdge(0, 3, 5)
		lru := NewLRUPaths(g, 0)
		if d := lru.Dist(0, 3); d != 5 {
			t.Fatalf("warm Dist = %v, want 5", d)
		}
		if err := g.RemoveEdge(0, 3); err != nil {
			t.Fatal(err)
		}
		if d := lru.Dist(0, 3); d != 30 {
			t.Errorf("post-RemoveEdge Dist = %v, want 30 (stale tree served)", d)
		}
	})

	t.Run("AddNode", func(t *testing.T) {
		g := build()
		lru := NewLRUPaths(g, 0)
		if d := lru.Dist(0, 3); d != 30 {
			t.Fatalf("warm Dist = %v, want 30", d)
		}
		id := g.AddNode("new", 0, 0)
		g.MustAddEdge(id, 0, 1)
		// The resized cache must cover the new node without panicking.
		if d := lru.Dist(0, id); d != 1 {
			t.Errorf("post-AddNode Dist(0,%d) = %v, want 1", id, d)
		}
		if got, want := lru.MaxDist(), g.apsp().MaxDist(); got != want {
			t.Errorf("post-AddNode MaxDist = %v, want %v", got, want)
		}
	})
}

// TestLRUWarmDeterministic warms the same source set at several worker
// widths and checks the cache answers and counters agree, and that
// warming past capacity evicts like queries would.
func TestLRUWarmDeterministic(t *testing.T) {
	g, err := RandomConnected(40, 90, 1, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	dense := g.apsp()
	sources := make([]NodeID, g.N())
	for i := range sources {
		sources[i] = NodeID(i)
	}
	for _, workers := range []int{1, 3, 8} {
		lru := NewLRUPaths(g, 0)
		lru.Warm(sources, workers)
		_, misses, _ := lru.Stats()
		if int(misses) != g.N() {
			t.Errorf("workers=%d: %d misses after full warm, want %d", workers, misses, g.N())
		}
		for i := 0; i < g.N(); i++ {
			if d, want := lru.Dist(NodeID(i), NodeID((i+1)%g.N())), dense.Dist(NodeID(i), NodeID((i+1)%g.N())); d != want {
				t.Fatalf("workers=%d: Dist mismatch at %d", workers, i)
			}
		}
		hits, _, _ := lru.Stats()
		if int(hits) != g.N() {
			t.Errorf("workers=%d: %d hits after warmed queries, want %d", workers, hits, g.N())
		}
	}
	// Warming past capacity must evict, not grow.
	small := NewLRUPaths(g, 5)
	small.Warm(sources, 4)
	if _, _, evictions := small.Stats(); evictions == 0 {
		t.Error("warming 40 sources into capacity 5 should evict")
	}
}

// TestLRUPathTree checks the single-tree path variant returns a valid
// shortest path: same endpoints, consecutive edges exist, and the
// walked latency equals the exact distance.
func TestLRUPathTree(t *testing.T) {
	g, err := Waxman("wax-pt", 40, 100, 3000, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	dense := g.apsp()
	lru := NewLRUPaths(g, 0)
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			p, err := lru.PathTree(NodeID(i), NodeID(j))
			if err != nil {
				t.Fatalf("PathTree(%d,%d): %v", i, j, err)
			}
			if p[0] != NodeID(i) || p[len(p)-1] != NodeID(j) {
				t.Fatalf("PathTree(%d,%d) endpoints %v", i, j, p)
			}
			var sum float64
			for k := 1; k < len(p); k++ {
				lat, err := g.EdgeLatency(p[k-1], p[k])
				if err != nil {
					t.Fatalf("PathTree(%d,%d) uses missing edge %d-%d", i, j, p[k-1], p[k])
				}
				sum += lat
			}
			if want := dense.Dist(NodeID(i), NodeID(j)); math.Abs(sum-want) > 1e-9 {
				t.Fatalf("PathTree(%d,%d) latency %v, want %v", i, j, sum, want)
			}
		}
	}
}

func TestHierarchical(t *testing.T) {
	levels := []HierLevel{
		{Fanout: 8, MeanLatency: 20, Redundancy: 1},
		{Fanout: 4, MeanLatency: 5, Redundancy: 1},
		{Fanout: 3, MeanLatency: 1},
	}
	want := 8 + 8*4 + 8*4*3
	if got := HierNodeCount(levels); got != want {
		t.Fatalf("HierNodeCount = %d, want %d", got, want)
	}
	g, err := Hierarchical("h", levels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != want {
		t.Errorf("N = %d, want %d", g.N(), want)
	}
	if !g.Connected() {
		t.Error("hierarchical graph must be connected")
	}
	if g.DiameterEstimate() <= 0 {
		t.Error("diameter estimate should be positive")
	}

	// Determinism: same spec + seed => identical graph, edge for edge.
	g2, err := Hierarchical("h", levels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.EdgeList(), g2.EdgeList()) {
		t.Error("same seed produced different edge lists")
	}
	if !reflect.DeepEqual(g.Nodes(), g2.Nodes()) {
		t.Error("same seed produced different node lists")
	}
	g3, err := Hierarchical("h", levels, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(g.EdgeList(), g3.EdgeList()) {
		t.Error("different seeds produced identical edge lists")
	}
}

func TestHierarchicalValidation(t *testing.T) {
	cases := []struct {
		name   string
		levels []HierLevel
	}{
		{"empty", nil},
		{"zero fanout", []HierLevel{{Fanout: 0, MeanLatency: 1}}},
		{"bad latency", []HierLevel{{Fanout: 3, MeanLatency: 0}}},
		{"negative redundancy", []HierLevel{{Fanout: 3, MeanLatency: 1, Redundancy: -1}}},
		{"single node", []HierLevel{{Fanout: 1, MeanLatency: 1}}},
		{"too big", []HierLevel{{Fanout: 2048, MeanLatency: 1}, {Fanout: 2048, MeanLatency: 1}}},
	}
	for _, tc := range cases {
		if _, err := Hierarchical("x", tc.levels, 1); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestParseHierSpec(t *testing.T) {
	levels, err := ParseHierSpec("8x16x25", "20,5,1", "0,1,1")
	if err != nil {
		t.Fatal(err)
	}
	want := []HierLevel{
		{Fanout: 8, MeanLatency: 20, Redundancy: 0},
		{Fanout: 16, MeanLatency: 5, Redundancy: 1},
		{Fanout: 25, MeanLatency: 1, Redundancy: 1},
	}
	if !reflect.DeepEqual(levels, want) {
		t.Errorf("ParseHierSpec = %+v, want %+v", levels, want)
	}
	// Broadcast forms: one latency / one redundancy for all levels.
	levels, err = ParseHierSpec("4,4", "10", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range levels {
		if lv.MeanLatency != 10 || lv.Redundancy != 2 {
			t.Errorf("broadcast parse = %+v", levels)
		}
	}
	for _, bad := range [][3]string{
		{"", "1", ""},
		{"4x4", "", ""},
		{"4x4", "1,2,3", ""},
		{"4x4", "1", "1,2,3"},
		{"axb", "1", ""},
		{"4x4", "x", ""},
		{"4x4", "1", "y"},
	} {
		if _, err := ParseHierSpec(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("ParseHierSpec(%q,%q,%q) should fail", bad[0], bad[1], bad[2])
		}
	}
}

// FuzzHierarchical fuzzes the determinism contract: any valid spec and
// seed must expand to the identical graph twice.
func FuzzHierarchical(f *testing.F) {
	f.Add(uint8(5), uint8(4), uint8(1), int64(1))
	f.Add(uint8(8), uint8(3), uint8(2), int64(99))
	f.Add(uint8(2), uint8(1), uint8(0), int64(-7))
	f.Fuzz(func(t *testing.T, f0, f1, red uint8, seed int64) {
		levels := []HierLevel{
			{Fanout: int(f0%12) + 2, MeanLatency: 10, Redundancy: int(red % 3)},
			{Fanout: int(f1%6) + 1, MeanLatency: 2, Redundancy: int(red % 2)},
		}
		a, err := Hierarchical("fz", levels, seed)
		if err != nil {
			t.Fatalf("valid spec rejected: %v", err)
		}
		b, err := Hierarchical("fz", levels, seed)
		if err != nil {
			t.Fatal(err)
		}
		if a.N() != b.N() || !reflect.DeepEqual(a.EdgeList(), b.EdgeList()) {
			t.Fatal("same seed produced different graphs")
		}
		if !a.Connected() {
			t.Fatal("hierarchical graph must be connected")
		}
	})
}
