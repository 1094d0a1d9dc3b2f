package ccncoord

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"ccncoord/internal/des"
	"ccncoord/internal/experiments"
	"ccncoord/internal/topology"
)

// This file holds one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates the artifact end to end; run
//
//	go test -bench=. -benchmem
//
// and use cmd/ccnexp to print the artifacts themselves.

// sinkFigure prevents dead-code elimination of figure computations.
var sinkFigure Figure

// sinkTable likewise for tables.
var sinkTable Table

func benchFigure(b *testing.B, build func() (experiments.Figure, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := build()
		if err != nil {
			b.Fatal(err)
		}
		sinkFigure = f
	}
	// Emit the artifact once per benchmark for eyeballing -benchtime
	// runs; discarded writer keeps output clean.
	if err := experiments.WriteFigureCSV(io.Discard, sinkFigure); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTableI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.TableI()
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

func BenchmarkTableII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTable = experiments.TableII()
	}
}

func BenchmarkTableIII(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

func BenchmarkTableIV(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkTable = experiments.TableIV()
	}
}

func BenchmarkFig4(b *testing.B)  { benchFigure(b, experiments.Fig4) }
func BenchmarkFig5(b *testing.B)  { benchFigure(b, experiments.Fig5) }
func BenchmarkFig6(b *testing.B)  { benchFigure(b, experiments.Fig6) }
func BenchmarkFig7(b *testing.B)  { benchFigure(b, experiments.Fig7) }
func BenchmarkFig8(b *testing.B)  { benchFigure(b, experiments.Fig8) }
func BenchmarkFig9(b *testing.B)  { benchFigure(b, experiments.Fig9) }
func BenchmarkFig10(b *testing.B) { benchFigure(b, experiments.Fig10) }
func BenchmarkFig11(b *testing.B) { benchFigure(b, experiments.Fig11) }
func BenchmarkFig12(b *testing.B) { benchFigure(b, experiments.Fig12) }
func BenchmarkFig13(b *testing.B) { benchFigure(b, experiments.Fig13) }

// BenchmarkModelVsSim runs this repository's own validation experiment:
// packet simulation against the analytical model on all four
// topologies.
func BenchmarkModelVsSim(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.ModelVsSim(20000)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

// Ablation benchmarks: the design-choice studies DESIGN.md calls out.

func BenchmarkAblationAssignment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationAssignment(20000)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

func BenchmarkAblationPolicy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationPolicy(20000)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

func BenchmarkAblationSolver(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationSolver()
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

func BenchmarkAblationCoordinator(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationCoordinator()
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

func BenchmarkStabilityAnalysis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.StabilityAnalysis()
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

func BenchmarkAblationResilience(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationResilience(20000)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

func BenchmarkAdaptiveConvergence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AdaptiveConvergence(20000, 3)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

// BenchmarkOptimizePerTopology measures the provisioning pipeline per
// evaluation topology: extract parameters, build the model, optimize.
func BenchmarkOptimizePerTopology(b *testing.B) {
	for _, g := range AllTopologies() {
		g := g
		b.Run(g.Name(), func(b *testing.B) {
			p, err := ExtractParams(g)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Model{
				S: 0.8, N: 1e6, C: 1e3, Routers: p.N,
				Lat:      LatencyFromGamma(1, p.TierGapHops, 5),
				UnitCost: p.UnitCost, Alpha: 0.8, Amortization: 1e6,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cfg.OptimalGains(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationLoss(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationLoss(10000)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

func BenchmarkAblationCongestion(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationCongestion(10000)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

func BenchmarkMetricVariant(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.MetricVariant()
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

func BenchmarkAdaptiveDrift(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.AdaptiveDrift(10000, 3)
		if err != nil {
			b.Fatal(err)
		}
		sinkTable = t
	}
}

// BenchmarkSimRun is the simulator regression benchmark that the
// cmd/ccnbench harness records into BENCH_<date>.json: one fixed-seed
// sim.Run per iteration on US-A, once with the provisioned coordinated
// placement and once with the dynamic LRU baseline (which exercises the
// eviction path the provisioned policies skip). Compare ns/op, B/op and
// allocs/op against the committed baselines before merging simulator
// changes.
func BenchmarkSimRun(b *testing.B) {
	base := Scenario{
		CatalogSize:   10000,
		ZipfS:         0.8,
		Capacity:      100,
		Requests:      20000,
		Seed:          1,
		AccessLatency: 5,
		OriginLatency: 60,
		OriginGateway: -1,
	}
	variants := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"Coordinated/US-A", func(sc *Scenario) {
			sc.Policy = PolicyCoordinated
			sc.Coordinated = 50
		}},
		{"LRU/US-A", func(sc *Scenario) {
			sc.Policy = PolicyLRU
			sc.Warmup = 10000
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			sc := base
			v.mut(&sc)
			sc.Topology = USA()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(sc)
				if err != nil {
					b.Fatal(err)
				}
				if res.Requests != sc.Requests {
					b.Fatalf("measured %d requests, want %d", res.Requests, sc.Requests)
				}
			}
		})
	}
}

// BenchmarkSimulationThroughput measures packet-simulator request
// throughput on US-A with the coordinated placement.
func BenchmarkSimulationThroughput(b *testing.B) {
	sc := Scenario{
		Topology:      USA(),
		CatalogSize:   10000,
		ZipfS:         0.8,
		Capacity:      100,
		Coordinated:   50,
		Policy:        PolicyCoordinated,
		Requests:      20000,
		Seed:          1,
		AccessLatency: 5,
		OriginLatency: 60,
		OriginGateway: -1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests != sc.Requests {
			b.Fatalf("measured %d requests, want %d", res.Requests, sc.Requests)
		}
	}
	b.ReportMetric(float64(sc.Requests), "requests/op")
}

// benchAPSPSink prevents dead-code elimination of routing solves.
var benchAPSPSink float64

// BenchmarkAPSP measures one cold full solve of the routing table per
// evaluation topology. ScaleLatencies(1) leaves every latency unchanged
// but bumps the graph's generation, so each iteration builds a fresh
// table and its diameter sweep solves every tree rather than reading a
// cached one.
func BenchmarkAPSP(b *testing.B) {
	for _, g := range topology.All() {
		b.Run(g.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := g.ScaleLatencies(1); err != nil {
					b.Fatal(err)
				}
				benchAPSPSink = g.ShortestPathsLatency().MaxDist()
			}
		})
	}
}

// benchRoutingSink prevents dead-code elimination of routing queries.
var benchRoutingSink float64

// BenchmarkRoutingScale is the scalable-routing n-sweep: hierarchical
// topologies of 10² to 10⁵ routers answering a mixed Dist/PathTree
// query stream. The Dense variant (named for the all-pairs matrix it
// once timed) pays one cold full solve of the table per op, all n
// trees — the O(n²) wall this sweep tracks; the LRU variants warm a
// bounded working set of shortest-path trees and answer from the cache,
// and the op fails if the live heap exceeds the 2 GB budget. One op =
// table build + warmup + the full query stream, so ns/op tracks
// precompute and query cost together; misses/op counts the Dijkstras
// actually run.
func BenchmarkRoutingScale(b *testing.B) {
	build := func(levels int) *topology.Graph { return buildHierGraph(b, levels) }
	// workingSet draws the seeded source pool the LRU cache is sized
	// for: client-facing routers concentrate their queries, so sources
	// come from a bounded set while destinations span the whole graph.
	workingSet := func(n, size int) []topology.NodeID {
		if size > n {
			size = n
		}
		rng := rand.New(rand.NewSource(7))
		seen := make(map[int]bool, size)
		out := make([]topology.NodeID, 0, size)
		for len(out) < size {
			v := rng.Intn(n)
			if !seen[v] {
				seen[v] = true
				out = append(out, topology.NodeID(v))
			}
		}
		return out
	}
	// queryStream runs the mixed workload: mostly Dist, every 64th a
	// PathTree (the single-tree path read a bounded table is sized for).
	queryStream := func(b *testing.B, p *topology.LRUPaths, sources []topology.NodeID, queries int) {
		b.Helper()
		rng := rand.New(rand.NewSource(11))
		n := p.N()
		var acc float64
		for q := 0; q < queries; q++ {
			src := sources[rng.Intn(len(sources))]
			dst := topology.NodeID(rng.Intn(n))
			if q%64 == 0 {
				path, err := p.PathTree(src, dst)
				if err != nil {
					b.Fatal(err)
				}
				acc += float64(len(path))
			} else {
				acc += p.Dist(src, dst)
			}
		}
		benchRoutingSink = acc
	}
	// checkHeap enforces the sweep's memory budget: the live heap after
	// a GC must stay under 2 GB even at 10⁵ routers.
	checkHeap := func(b *testing.B) float64 {
		b.Helper()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > 2<<30 {
			b.Fatalf("live heap %d bytes exceeds the 2 GB routing budget", ms.HeapAlloc)
		}
		return float64(ms.HeapAlloc) / (1 << 20)
	}

	b.Run("Dense/n=100", func(b *testing.B) {
		g := build(2)
		sources := workingSet(g.N(), 256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// ScaleLatencies(1) bumps the graph's generation, so every op
			// pays a cold full solve of the table: the sweep solves all n
			// trees before the queries read them.
			if err := g.ScaleLatencies(1); err != nil {
				b.Fatal(err)
			}
			routes := g.ShortestPathsLatency()
			routes.MaxDist()
			queryStream(b, routes, sources, 10*g.N())
		}
		b.ReportMetric(checkHeap(b), "heapMB")
	})
	for levels := 2; levels <= 5; levels++ {
		g := build(levels)
		queries := 10 * g.N()
		b.Run(fmt.Sprintf("LRU/n=%d", g.N()), func(b *testing.B) {
			sources := workingSet(g.N(), 256)
			capacity := 320
			if capacity > g.N() {
				capacity = g.N()
			}
			var misses uint64
			var lru *topology.LRUPaths
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lru = topology.NewLRUPaths(g, capacity)
				lru.Warm(sources, 0)
				queryStream(b, lru, sources, queries)
				_, misses, _ = lru.Stats()
			}
			b.StopTimer()
			b.ReportMetric(float64(misses), "misses/op")
			b.ReportMetric(float64(queries), "queries/op")
			// Measure while the cache is still live so heapMB reflects
			// the resident shortest-path trees, not post-GC garbage.
			b.ReportMetric(checkHeap(b), "heapMB")
			runtime.KeepAlive(lru)
		})
	}
}

// buildHierGraph expands the scale-sweep hierarchy to exactly 10^levels
// routers: 10, +90, +900, +9000, +90000, with latencies shrinking from
// backbone (20 ms) to access (0.5 ms) as the levels descend.
func buildHierGraph(b *testing.B, levels int) *topology.Graph {
	b.Helper()
	allFanouts := []int{10, 9, 10, 10, 10}
	latencies := []float64{20, 5, 2, 1, 0.5}
	spec := make([]topology.HierLevel, levels)
	for i := 0; i < levels; i++ {
		spec[i] = topology.HierLevel{Fanout: allFanouts[i], MeanLatency: latencies[i], Redundancy: 1}
	}
	g, err := topology.Hierarchical("", spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkShardedDES is the parallel-engine scale sweep: hierarchical
// topologies of 10² to 10⁵ routers, partitioned by PartitionGraph into
// 1/2/4/8 shards, driven by synthetic packet cascades — every router
// seeds a 16-hop walk whose each event schedules the next hop at a
// graph neighbor after that link's real latency, so cross-shard sends
// ride genuine cut-edge latencies and the conservative window protocol
// is exercised exactly as the simulator exercises it. It deliberately
// stays at the des layer: the full simulator funnels routing queries
// through a mutex, which would measure lock contention, not the engine.
//
// Reported columns land in the committed BENCH_<date>.json baseline:
// events/s (aggregate throughput), speedup (vs the shards=1 run of the
// same n), xfrac (fraction of events delivered across shard
// boundaries), and cores (GOMAXPROCS — speedup is wall-clock, so on a
// single-core runner it hovers near 1 and only the ≥4-core reading is a
// parallel-scaling claim; TestBenchBaseline gates on it accordingly).
func BenchmarkShardedDES(b *testing.B) {
	const hops = 16
	for levels := 2; levels <= 5; levels++ {
		g := buildHierGraph(b, levels)
		n := g.N()
		// Flatten adjacency once per graph: Neighbors/EdgeLatency
		// allocate and search, which would dominate the event loop.
		nbrs := make([][]topology.NodeID, n)
		lats := make([][]float64, n)
		for r := 0; r < n; r++ {
			id := topology.NodeID(r)
			nbrs[r] = g.Neighbors(id)
			lats[r] = make([]float64, len(nbrs[r]))
			for i, w := range nbrs[r] {
				l, err := g.EdgeLatency(id, w)
				if err != nil {
					b.Fatal(err)
				}
				lats[r][i] = l
			}
		}
		var serialNs float64
		for _, shards := range []int{1, 2, 4, 8} {
			part, err := topology.PartitionGraph(g, shards)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("n=%d/shards=%d", n, shards), func(b *testing.B) {
				var processed, cross uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					se, err := des.NewSharded(part.Parts, part.CutLatency)
					if err != nil {
						b.Fatal(err)
					}
					// step builds the event for one hop of a cascade at
					// router r: fire, then schedule the next hop on the
					// neighbor's shard after the connecting link latency.
					var step func(r topology.NodeID, ttl int) func()
					step = func(r topology.NodeID, ttl int) func() {
						sh := se.Shard(int(part.Of[r]))
						return func() {
							if ttl == 0 {
								return
							}
							i := (int(r) + ttl) % len(nbrs[r])
							next := nbrs[r][i]
							if err := sh.ScheduleTo(int(part.Of[next]), lats[r][i], step(next, ttl-1)); err != nil {
								panic(err)
							}
						}
					}
					for r := 0; r < n; r++ {
						// Stagger starts so the first window is not one
						// synchronized burst at t=0.
						if err := se.Shard(int(part.Of[r])).At(float64(r%97)*0.01, step(topology.NodeID(r), hops)); err != nil {
							b.Fatal(err)
						}
					}
					se.Run()
					processed, cross = se.Processed(), se.CrossShardEvents()
					if want := uint64(n) * (hops + 1); processed != want {
						b.Fatalf("processed %d events, want %d", processed, want)
					}
				}
				b.StopTimer()
				benchShardSink = processed
				nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				if shards == 1 {
					serialNs = nsPerOp
				}
				b.ReportMetric(float64(processed)/(nsPerOp/1e9), "events/s")
				b.ReportMetric(serialNs/nsPerOp, "speedup")
				b.ReportMetric(float64(cross)/float64(processed), "xfrac")
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
			})
		}
	}
}

// benchShardSink prevents dead-code elimination of cascade runs.
var benchShardSink uint64

// benchTopoSink prevents dead-code elimination of dataset construction.
var benchTopoSink []*topology.Graph

// BenchmarkTopologyAll measures handing out the four calibrated
// evaluation datasets. The first call ever pays the memoized build
// (seed search + calibration); steady state is four clones sharing the
// precomputed routing caches.
func BenchmarkTopologyAll(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTopoSink = topology.All()
	}
}

// Example demonstrates the one-call provisioning flow.
func Example() {
	cfg := Model{
		S: 0.8, N: 1e6, C: 1e3, Routers: 20,
		Lat:      LatencyFromGamma(1, 2.2842, 5),
		UnitCost: 26.7, Alpha: 0.8, Amortization: 1e6,
	}
	g, err := cfg.OptimalGains()
	if err != nil {
		panic(err)
	}
	fmt.Printf("optimal coordination level: %.2f\n", g.Level)
	// Output: optimal coordination level: 0.93
}
