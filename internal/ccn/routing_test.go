package ccn

import (
	"testing"

	"ccncoord/internal/cache"
	"ccncoord/internal/catalog"
	"ccncoord/internal/des"
	"ccncoord/internal/topology"
)

// TestFaultsRerouteOnEveryBackend crashes the shortcut router of a
// square and checks that a fault-aware plane on each backend forwards
// around it and back once it recovers, attaching one private LRU table
// either way: the table the graph shares with other networks never sees
// the outage.
func TestFaultsRerouteOnEveryBackend(t *testing.T) {
	for _, b := range []topology.Backend{topology.BackendAuto, topology.BackendDense, topology.BackendLRU} {
		// 2 -> 1 -> 0 is the short way to the origin at 0; 2 -> 3 -> 0
		// the detour.
		g := topology.New("square")
		for i := 0; i < 4; i++ {
			g.AddNode("", 0, 0)
		}
		g.MustAddEdge(0, 1, 5)
		g.MustAddEdge(1, 2, 5)
		g.MustAddEdge(2, 3, 10)
		g.MustAddEdge(3, 0, 10)
		cat, err := catalog.New(100, "/t")
		if err != nil {
			t.Fatal(err)
		}
		eng := &des.Engine{}
		net, err := NewNetwork(eng, g, cat, Options{
			AccessLatency: 1,
			Routing:       b,
			Faults:        true,
			RetxTimeout:   1000,
			Stores: func(topology.NodeID) (cache.Store, error) {
				return cache.NewLRU(0)
			},
		})
		if err != nil {
			t.Fatalf("%v backend: %v", b, err)
		}
		if err := net.AttachOriginAt(0, 50); err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{
			"all up":        2 * (1 + 5 + 5 + 50),
			"router 1 down": 2 * (1 + 10 + 10 + 50),
			"router 1 up":   2 * (1 + 5 + 5 + 50),
		}
		for _, stage := range []string{"all up", "router 1 down", "router 1 up"} {
			switch stage {
			case "router 1 down":
				if err := net.SetRouterState(1, false); err != nil {
					t.Fatal(err)
				}
				if shared := g.ShortestPathTrees(); net.Routes() == shared || shared.Next(2, 0) != 1 {
					t.Errorf("%v backend: the outage reached the graph's shared table", b)
				}
			case "router 1 up":
				if err := net.SetRouterState(1, true); err != nil {
					t.Fatal(err)
				}
			}
			if res := runOne(t, eng, net, 2, 1); res.Failed || res.Latency() != want[stage] {
				t.Errorf("%v backend, %s: latency %v (failed %v), want %v", b, stage, res.Latency(), res.Failed, want[stage])
			}
		}
		if _, ok := net.Routes().(*topology.LRUPaths); !ok {
			t.Errorf("%v backend: fault-aware plane routes with %T, want *topology.LRUPaths", b, net.Routes())
		}
	}
}

// TestSparseRoutingDataPlane runs the same request stream over the
// dense and LRU backends and checks the planes behave identically —
// the data plane only consults Next, which is bit-identical.
func TestSparseRoutingDataPlane(t *testing.T) {
	for _, b := range []topology.Backend{topology.BackendDense, topology.BackendLRU} {
		g := topology.New("line3")
		for i := 0; i < 3; i++ {
			g.AddNode("", 0, 0)
		}
		g.MustAddEdge(0, 1, 5)
		g.MustAddEdge(1, 2, 5)
		cat, err := catalog.New(100, "/t")
		if err != nil {
			t.Fatal(err)
		}
		eng := &des.Engine{}
		net, err := NewNetwork(eng, g, cat, Options{
			AccessLatency: 1,
			Routing:       b,
			Stores: func(id topology.NodeID) (cache.Store, error) {
				return cache.NewLRU(2)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AttachOriginAt(0, 50); err != nil {
			t.Fatal(err)
		}
		res := runOne(t, eng, net, 2, 1)
		// R2 -> R1 -> R0 -> origin and back: 2*(1 + 5 + 5 + 50) = 122.
		if res.Latency() != 122 {
			t.Errorf("%v backend: latency %v, want 122", b, res.Latency())
		}
		if res.ServedBy != ServedOrigin {
			t.Errorf("%v backend: served by %v, want origin", b, res.ServedBy)
		}
	}
}
