package ccn

import (
	"math"
	"testing"

	"ccncoord/internal/cache"
	"ccncoord/internal/catalog"
	"ccncoord/internal/des"
	"ccncoord/internal/topology"
)

// TestIncrementalReroutingMatchesFullRecompute drives a fault schedule
// through SetLinkState/SetRouterState and checks after every event that
// the incrementally repaired routing matrix matches a from-scratch
// shortest-path solve of the alive subgraph (clone minus every down
// link and every link incident to a crashed router) — the strategy the
// network used before the incremental engine existed.
func TestIncrementalReroutingMatchesFullRecompute(t *testing.T) {
	g, err := topology.Waxman("reroute", 18, 32, 4000, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.New(100, "/t")
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(&des.Engine{}, g, cat, Options{
		AccessLatency: 1,
		Faults:        true,
		RetxTimeout:   100,
		Stores: func(topology.NodeID) (cache.Store, error) {
			return cache.NewStatic(nil)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	fullRecompute := func() *topology.LRUPaths {
		alive := g.Clone()
		for _, e := range g.EdgeList() {
			if net.crashedRouter(e.A) || net.crashedRouter(e.B) || net.linkDown(e.A, e.B) {
				if err := alive.RemoveEdge(e.A, e.B); err != nil {
					t.Fatal(err)
				}
			}
		}
		return alive.ShortestPathsLatency()
	}
	check := func(stage string) {
		t.Helper()
		ref := fullRecompute()
		n := ref.N()
		for s := topology.NodeID(0); int(s) < n; s++ {
			for d := topology.NodeID(0); int(d) < n; d++ {
				got, want := net.lat.Dist(s, d), ref.Dist(s, d)
				if math.IsInf(got, 1) != math.IsInf(want, 1) {
					t.Fatalf("%s: reachability of (%d,%d) diverged: got %v, want %v", stage, s, d, got, want)
				}
				if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s: dist(%d,%d) = %v, full recompute %v", stage, s, d, got, want)
				}
			}
		}
	}

	edges := g.EdgeList()
	e1, e2 := edges[2], edges[len(edges)-3]
	type step struct {
		name string
		run  func() error
	}
	schedule := []step{
		{"link e1 down", func() error { return net.SetLinkState(e1.A, e1.B, false) }},
		{"router crash", func() error { return net.SetRouterState(5, false) }},
		{"link e2 down", func() error { return net.SetLinkState(e2.A, e2.B, false) }},
		{"link e1 up", func() error { return net.SetLinkState(e1.A, e1.B, true) }},
		{"second router crash", func() error { return net.SetRouterState(11, false) }},
		{"router recover", func() error { return net.SetRouterState(5, true) }},
		{"link e2 up", func() error { return net.SetLinkState(e2.A, e2.B, true) }},
		{"second router recover", func() error { return net.SetRouterState(11, true) }},
	}
	for _, st := range schedule {
		if err := st.run(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		check(st.name)
	}

	// All elements recovered: the routing matrix must be bit-identical
	// to the pristine solve, so a full fault cycle leaves no float drift.
	base := g.ShortestPathsLatency()
	n := base.N()
	for s := topology.NodeID(0); int(s) < n; s++ {
		for d := topology.NodeID(0); int(d) < n; d++ {
			if net.lat.Dist(s, d) != base.Dist(s, d) || net.lat.Next(s, d) != base.Next(s, d) {
				t.Fatalf("all-up routing state not pristine at (%d,%d)", s, d)
			}
		}
	}
}
