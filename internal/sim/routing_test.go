package sim

import (
	"bytes"
	"reflect"
	"testing"

	"ccncoord/internal/fault"
	"ccncoord/internal/topology"
)

// TestRunDenseVsLRUByteIdentical runs one scenario under the dense and
// LRU routing backends and requires identical results down to the
// serialized manifest bytes: the data plane only consults Next, which
// the LRU backend answers bit-identically.
func TestRunDenseVsLRUByteIdentical(t *testing.T) {
	results := make([]Result, 0, 2)
	manifests := make([][]byte, 0, 2)
	for _, b := range []topology.Backend{topology.BackendDense, topology.BackendLRU} {
		sc := testScenario()
		sc.Requests = 8000
		sc.Routing = b
		sc.EmitManifest = true
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%v backend: %v", b, err)
		}
		var buf bytes.Buffer
		if err := res.Manifest.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		manifests = append(manifests, buf.Bytes())
		res.Manifest = nil
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("dense and LRU results differ:\ndense: %+v\nlru:   %+v", results[0], results[1])
	}
	if !bytes.Equal(manifests[0], manifests[1]) {
		t.Error("dense and LRU run manifests are not byte-identical")
	}
}

// TestRunFaultsDenseVsLRUByteIdentical runs a failure scenario —
// scripted router and link outages plus stochastic MTBF/MTTR faults —
// under the dense and LRU routing backends and requires identical
// results and manifest bytes: either way the fault-aware plane reroutes
// with the same LRU table.
func TestRunFaultsDenseVsLRUByteIdentical(t *testing.T) {
	e := topology.USA().EdgeList()[5]
	results := make([]Result, 0, 2)
	manifests := make([][]byte, 0, 2)
	for _, b := range []topology.Backend{topology.BackendDense, topology.BackendLRU} {
		sc := testScenario()
		sc.Requests = 8000
		sc.Routing = b
		sc.EmitManifest = true
		sc.RetxTimeout = 150
		sc.FaultScript = []fault.Event{
			{At: 50, Kind: fault.RouterDown, Node: 3},
			{At: 100, Kind: fault.LinkDown, A: e.A, B: e.B},
			{At: 250, Kind: fault.RouterUp, Node: 3},
			{At: 300, Kind: fault.LinkUp, A: e.A, B: e.B},
		}
		sc.MTBF, sc.MTTR, sc.FaultSeed = 200, 80, 3
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%v backend: %v", b, err)
		}
		if res.RouteRecomputes < 4 {
			t.Fatalf("%v backend: %d route recomputes, want the scripted faults at least", b, res.RouteRecomputes)
		}
		var buf bytes.Buffer
		if err := res.Manifest.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		manifests = append(manifests, buf.Bytes())
		res.Manifest = nil
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("dense and LRU fault results differ:\ndense: %+v\nlru:   %+v", results[0], results[1])
	}
	if !bytes.Equal(manifests[0], manifests[1]) {
		t.Error("dense and LRU fault-run manifests are not byte-identical")
	}
}

// TestFaultsOnLargeHierarchy runs a short fault scenario on a generated
// hierarchy above the dense threshold with routing left on auto, so the
// plane routes with the LRU backend from the start.
func TestFaultsOnLargeHierarchy(t *testing.T) {
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
	sc := testScenario()
	sc.Topology = g
	sc.Requests = 6000
	sc.RetxTimeout = 150
	// Crash and recover a core router, and crash an aggregation router
	// for good: its single-homed leaves are cut off, so their requests
	// exhaust their retries and fail.
	sc.FaultScript = []fault.Event{
		{At: 1, Kind: fault.RouterDown, Node: 0},
		{At: 1, Kind: fault.RouterDown, Node: 4},
		{At: 3, Kind: fault.RouterUp, Node: 0},
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("fault scenario on %d routers with auto routing rejected: %v", g.N(), err)
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
