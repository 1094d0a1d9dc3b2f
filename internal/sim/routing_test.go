package sim

import (
	"reflect"
	"sync"
	"testing"

	"ccncoord/internal/fault"
	"ccncoord/internal/topology"
)

// largeHierarchy returns a generated hierarchy above the auto-shard
// threshold, where the routing trees are solved by the parallel
// diameter sweep.
func largeHierarchy(t *testing.T) *topology.Graph {
	t.Helper()
	levels, err := topology.ParseHierSpec("4,8,40", "20,5,1", "1,1,0")
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Hierarchical("fault-hier", levels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() < topology.DenseAutoThreshold {
		t.Fatalf("test graph has %d routers, need >= %d", g.N(), topology.DenseAutoThreshold)
	}
	return g
}

// hierFaultScript crashes and recovers a core router, and crashes an
// aggregation router for good: its single-homed leaves are cut off, so
// their requests exhaust their retries and fail.
var hierFaultScript = []fault.Event{
	{At: 1, Kind: fault.RouterDown, Node: 0},
	{At: 1, Kind: fault.RouterDown, Node: 4},
	{At: 3, Kind: fault.RouterUp, Node: 0},
}

// TestFaultsOnLargeHierarchy runs a short fault scenario on a generated
// hierarchy above the auto-shard threshold: the faults pin the run to
// the serial engine, and the plane reroutes with its private table.
func TestFaultsOnLargeHierarchy(t *testing.T) {
	g := largeHierarchy(t)
	sc := testScenario()
	sc.Topology = g
	sc.Requests = 6000
	sc.RetxTimeout = 150
	sc.FaultScript = hierFaultScript
	if err := sc.Validate(); err != nil {
		t.Fatalf("fault scenario on %d routers rejected: %v", g.N(), err)
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.RouteRecomputes != 3 {
		t.Errorf("route recomputes = %d, want the 3 scripted events", res.RouteRecomputes)
	}
	if res.FailedRequests == 0 {
		t.Error("no failed requests accounted while routers were down")
	}
	if res.FailedRequests > int64(sc.Requests) {
		t.Errorf("failed requests %d exceed the %d issued", res.FailedRequests, sc.Requests)
	}
}

// TestRunsShareRoutingTrees runs one scenario twice on a hierarchy above
// the auto-shard threshold, with a fault run on the same graph in between.
// The graph's shared tree table solves every tree exactly once, in the
// first run's set-up diameter sweep; the later runs solve none, the
// fault run's outages stay in its private table, and the two fault-free
// runs agree exactly.
func TestRunsShareRoutingTrees(t *testing.T) {
	g := largeHierarchy(t)
	shared := g.ShortestPathsLatency()
	sc := testScenario()
	sc.Topology = g
	sc.Requests = 4000
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	_, solved, _ := shared.Stats()
	if int(solved) != g.N() {
		t.Fatalf("first run solved %d trees, want each of the %d once", solved, g.N())
	}

	faulty := sc
	faulty.RetxTimeout = 150
	faulty.FaultScript = hierFaultScript
	if _, err := Run(faulty); err != nil {
		t.Fatal(err)
	}
	second, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if g.ShortestPathsLatency() != shared {
		t.Fatal("the graph's tree table was replaced between runs")
	}
	if _, after, _ := shared.Stats(); after != solved {
		t.Errorf("later runs solved %d more trees, want 0", after-solved)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("runs on a shared table differ:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestConcurrentRunsShareTrees runs one scenario from several
// goroutines at once on one graph, so they query and fill the graph's
// shared table concurrently; every run must equal the serial reference.
func TestConcurrentRunsShareTrees(t *testing.T) {
	sc := testScenario()
	sc.Topology = topology.USA()
	sc.Requests = 3000
	ref, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// ScaleLatencies(1) changes no latency but bumps the generation, so
	// the runs share a cold table instead of the dataset's solved one.
	sc.Topology = topology.USA()
	if err := sc.Topology.ScaleLatencies(1); err != nil {
		t.Fatal(err)
	}
	results := make([]Result, 4)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(sc)
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("concurrent run %d differs from the serial reference", i)
		}
	}
}
