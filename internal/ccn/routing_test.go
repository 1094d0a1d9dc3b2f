package ccn

import (
	"math/rand"
	"reflect"
	"testing"

	"ccncoord/internal/cache"
	"ccncoord/internal/catalog"
	"ccncoord/internal/des"
	"ccncoord/internal/fault"
	"ccncoord/internal/topology"
)

// boundTable swaps a bounded private routing table of the given
// capacity in for the plane's table before any event runs; a fault-
// aware plane then keeps it as its fault table.
func boundTable(net *Network, capacity int) {
	net.lat = topology.NewLRUPaths(net.graph, capacity)
	if net.opts.Faults {
		net.faultRoutes = net.lat
	}
}

// TestFaultsRerouteOnEveryBackend crashes the shortcut router of a
// square and checks that a fault-aware plane forwards around it and
// back once it recovers, with the default full fault table and with a
// bounded one: the table the graph shares with other networks never
// sees the outage.
func TestFaultsRerouteOnEveryBackend(t *testing.T) {
	for _, capacity := range []int{0, 2} {
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
			Faults:        true,
			RetxTimeout:   1000,
			Stores: func(topology.NodeID) (cache.Store, error) {
				return cache.NewLRU(0)
			},
		})
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		if capacity > 0 {
			boundTable(net, capacity)
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
				if shared := g.ShortestPathsLatency(); net.Routes() == shared || shared.Next(2, 0) != 1 {
					t.Errorf("capacity %d: the outage reached the graph's shared table", capacity)
				}
			case "router 1 up":
				if err := net.SetRouterState(1, true); err != nil {
					t.Fatal(err)
				}
			}
			if res := runOne(t, eng, net, 2, 1); res.Failed || res.Latency() != want[stage] {
				t.Errorf("capacity %d, %s: latency %v (failed %v), want %v", capacity, stage, res.Latency(), res.Failed, want[stage])
			}
		}
	}
}

// TestSparseRoutingDataPlane runs one request over the graph's shared
// table and over a one-tree table, and checks the planes behave
// identically: a bounded table answers Next exactly like a full one.
func TestSparseRoutingDataPlane(t *testing.T) {
	for _, capacity := range []int{0, 1} {
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
			Stores: func(id topology.NodeID) (cache.Store, error) {
				return cache.NewLRU(2)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if capacity > 0 {
			boundTable(net, capacity)
		}
		if err := net.AttachOriginAt(0, 50); err != nil {
			t.Fatal(err)
		}
		res := runOne(t, eng, net, 2, 1)
		// R2 -> R1 -> R0 -> origin and back: 2*(1 + 5 + 5 + 50) = 122.
		if res.Latency() != 122 {
			t.Errorf("capacity %d: latency %v, want 122", capacity, res.Latency())
		}
		if res.ServedBy != ServedOrigin {
			t.Errorf("capacity %d: served by %v, want origin", capacity, res.ServedBy)
		}
	}
}

// faultRun is everything a fault-driven run of the plane reports: the
// completion stream in completion order and the plane's counters.
type faultRun struct {
	completions []RequestResult
	counters    [7]int64
	stats       []NodeStats
}

// runUnderFaults drives US-A with 8 000 seeded requests — Poisson
// arrivals, Zipf contents, the 600 most popular contents spread over
// the routers' static stores behind a directory (so interests route
// toward every router), the rest from an origin behind router 0 —
// through the fault events, on a fault table of the given capacity (0:
// the default full table, attached at the first event). It returns the
// run and the fault table.
func runUnderFaults(t *testing.T, events []fault.Event, capacity int) (faultRun, *topology.LRUPaths) {
	t.Helper()
	g := topology.USA()
	cat, err := catalog.New(2000, "/t")
	if err != nil {
		t.Fatal(err)
	}
	dir := mapDirectory{}
	held := make([][]catalog.ID, g.N())
	for id := catalog.ID(1); id <= 600; id++ {
		owner := topology.NodeID(int(id) % g.N())
		dir[id] = owner
		held[owner] = append(held[owner], id)
	}
	eng := &des.Engine{}
	net, err := NewNetwork(eng, g, cat, Options{
		AccessLatency: 5,
		Directory:     dir,
		Faults:        true,
		RetxTimeout:   200,
		Stores: func(r topology.NodeID) (cache.Store, error) {
			return cache.NewStatic(held[r])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AttachOriginAt(0, 60); err != nil {
		t.Fatal(err)
	}
	if capacity > 0 {
		boundTable(net, capacity)
	}
	sched, err := fault.Scripted(events...)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(eng, sched, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Install(); err != nil {
		t.Fatal(err)
	}
	var run faultRun
	done := func(r RequestResult) { run.completions = append(run.completions, r) }
	rng := rand.New(rand.NewSource(17))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(cat.Size()-1))
	at := 0.0
	for i := 0; i < 8000; i++ {
		at += rng.ExpFloat64() / 10 // 10 requests per ms across the domain
		router := topology.NodeID(rng.Intn(g.N()))
		id := catalog.ID(zipf.Uint64() + 1)
		if err := eng.At(at, func() {
			if err := net.Request(router, id, done); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(run.completions) != 8000 {
		t.Fatalf("%d of 8000 requests completed", len(run.completions))
	}
	run.counters = [7]int64{
		net.InterestTransmissions(), net.DataTransmissions(), net.Retransmissions(),
		net.FaultDrops(), net.ExpiredInterests(), net.FailedRequests(), net.RouteRecomputes(),
	}
	run.stats = net.AllStats()
	return run, net.faultRoutes
}

// TestFaultTableFullVsBounded drives US-A through a scripted crash
// schedule (router 3 down over [100, 600) ms, router 7 down from 200 ms
// on) and, separately, through the link events of the partition chaos
// preset, once on the default full fault table and once on a 3-tree
// table attached before the first event. The completion streams and
// every counter must be identical: a bounded table recycles trees and
// re-solves them under faults, but answers exactly like a full one.
func TestFaultTableFullVsBounded(t *testing.T) {
	preset, err := fault.ChaosPreset("partition")
	if err != nil {
		t.Fatal(err)
	}
	partition, err := preset.Compile(topology.USA())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]fault.Event{
		"crash 3@100-600,7@200": {
			{At: 100, Kind: fault.RouterDown, Node: 3},
			{At: 600, Kind: fault.RouterUp, Node: 3},
			{At: 200, Kind: fault.RouterDown, Node: 7},
		},
		"partition": partition.Events,
	}
	for name, events := range cases {
		t.Run(name, func(t *testing.T) {
			full, fullTable := runUnderFaults(t, events, 0)
			bounded, boundedTable := runUnderFaults(t, events, 3)
			if fullTable.Capacity() != fullTable.N() || boundedTable.Capacity() != 3 {
				t.Fatalf("fault tables hold %d and %d trees, want %d and 3", fullTable.Capacity(), boundedTable.Capacity(), fullTable.N())
			}
			if _, _, evictions := boundedTable.Stats(); evictions == 0 {
				t.Error("the 3-tree table never evicted")
			}
			if full.counters[3] == 0 || full.counters[6] == 0 {
				t.Errorf("%d transmissions blackholed and %d routes recomputed, want faults to bite", full.counters[3], full.counters[6])
			}
			if !reflect.DeepEqual(full.completions, bounded.completions) {
				for i := range full.completions {
					if full.completions[i] != bounded.completions[i] {
						t.Fatalf("completion %d differs:\nfull:    %+v\nbounded: %+v", i, full.completions[i], bounded.completions[i])
					}
				}
			}
			if full.counters != bounded.counters {
				t.Errorf("counters differ:\nfull:    %v\nbounded: %v", full.counters, bounded.counters)
			}
			if !reflect.DeepEqual(full.stats, bounded.stats) {
				t.Error("per-router stats differ between the full and the bounded table")
			}
		})
	}
}
