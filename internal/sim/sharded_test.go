package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"ccncoord/internal/ccn"
	"ccncoord/internal/fault"
	"ccncoord/internal/timeline"
	"ccncoord/internal/topology"
	"ccncoord/internal/trace"
	"ccncoord/internal/workload"
)

// TestRunShardedMatchesSerial is the tentpole determinism guarantee, over
// every shardable provisioning: each scenario run serially and on 4
// shards must produce identical Results — every float bit — identical
// observer streams (completion order included), and byte-identical
// manifests outside the Engine gauges (PendingPeak is approximated
// under sharding). Dynamic-cache and non-coordinated cases attach the
// origin behind one gateway: uniform uplinks with no directory would
// keep every packet shard-local.
func TestRunShardedMatchesSerial(t *testing.T) {
	base := testScenario()
	n := base.Topology.N()
	routers := make([]topology.NodeID, n)
	for i := range routers {
		routers[i] = topology.NodeID(i)
	}
	counts := map[catalogID]int64{}
	for rank := int64(1); rank <= 2000; rank++ {
		counts[catalogID(rank)] = 3000 - rank
	}
	placement, err := computePlacement(routers, counts, base.Capacity-base.Coordinated, base.Coordinated)
	if err != nil {
		t.Fatal(err)
	}
	hetero := make([]int64, n)
	for i := range hetero {
		hetero[i] = 60 + 80*int64(i%2)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"non-coordinated", func(sc *Scenario) { sc.Policy = PolicyNonCoordinated }},
		{"coordinated stripe with timeline", func(sc *Scenario) { sc.Timeline = timeline.NewRing(8) }},
		{"coordinated hash", func(sc *Scenario) { sc.Assignment = AssignHash }},
		{"coordinated heterogeneous", func(sc *Scenario) { sc.Capacities = hetero }},
		{"coordinated external placement", func(sc *Scenario) { sc.Placement = placement }},
		{"lru", func(sc *Scenario) { sc.Policy = PolicyLRU }},
		{"lfu", func(sc *Scenario) { sc.Policy = PolicyLFU }},
		{"slru", func(sc *Scenario) { sc.Policy = PolicySLRU }},
		{"2q", func(sc *Scenario) { sc.Policy = PolicyTwoQ }},
		{"no warmup", func(sc *Scenario) { sc.Warmup = 0 }},
		{"fewer requests than routers", func(sc *Scenario) { sc.Requests, sc.Warmup = n/2, 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var results []Result
			var manifests [][]byte
			var observed [][]ccn.RequestResult
			var engines []ManifestEngine
			for _, shards := range []int{1, 4} {
				var seen []ccn.RequestResult
				sc := testScenario()
				sc.Requests, sc.Warmup = 4000, 400
				sc.Shards = shards
				sc.CollectReports = true
				sc.EmitManifest = true
				sc.Observer = func(r ccn.RequestResult) { seen = append(seen, r) }
				tc.mutate(&sc)
				if sc.Policy != PolicyCoordinated {
					sc.OriginGateway = 0
				}
				res, err := Run(sc)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				engines = append(engines, res.Manifest.Engine)
				// Blank the engine gauges before serializing: PendingPeak is
				// exact serially but a lower bound under sharding, and the
				// shard gauges differ by construction. Everything else in the
				// manifest must match to the byte.
				res.Manifest.Engine = ManifestEngine{}
				var buf bytes.Buffer
				if err := res.Manifest.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				manifests = append(manifests, buf.Bytes())
				res.Manifest = nil
				results = append(results, res)
				observed = append(observed, seen)
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Errorf("serial and sharded results differ:\nserial:  %+v\nsharded: %+v", results[0], results[1])
			}
			if !bytes.Equal(manifests[0], manifests[1]) {
				t.Error("serial and sharded manifests are not byte-identical outside engine gauges")
			}
			if !reflect.DeepEqual(observed[0], observed[1]) {
				t.Error("observer streams differ (completion order is not deterministic)")
			}
			// The event set is identical — sharding moves events between
			// loops, it never adds or drops any.
			if engines[0].EventsProcessed != engines[1].EventsProcessed {
				t.Errorf("events processed differ: serial %d, sharded %d", engines[0].EventsProcessed, engines[1].EventsProcessed)
			}
			if engines[0].Shards != 1 || engines[0].CrossShardEvents != 0 {
				t.Errorf("serial engine gauges = %+v, want 1 shard and 0 cross-shard events", engines[0])
			}
			if engines[1].Shards != 4 {
				t.Errorf("sharded run reports %d shards, want 4", engines[1].Shards)
			}
			if engines[1].CrossShardEvents == 0 {
				t.Error("sharded run reports no cross-shard events on a connected topology")
			}
		})
	}
}

// TestResolveShards pins the shard-count resolution rules: explicit
// counts honored and clamped, the auto rule's threshold, and the
// serial fallback for every non-shardable feature.
func TestResolveShards(t *testing.T) {
	base := testScenario()
	if got := ResolveShards(base); got != 1 {
		t.Errorf("auto on %d routers = %d shards, want 1 (below threshold)", base.Topology.N(), got)
	}
	explicit := base
	explicit.Shards = 4
	if got := ResolveShards(explicit); got != 4 {
		t.Errorf("explicit 4 shards resolved to %d", got)
	}
	clamped := base
	clamped.Shards = 10 * base.Topology.N()
	if got := ResolveShards(clamped); got != base.Topology.N() {
		t.Errorf("oversized request resolved to %d shards, want clamp to %d routers", got, base.Topology.N())
	}

	// At or above the threshold the auto rule engages.
	levels, err := topology.ParseHierSpec("4,8,40", "20,5,1", "1,1,0")
	if err != nil {
		t.Fatal(err)
	}
	big, err := topology.Hierarchical("auto-test", levels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if big.N() < topology.DenseAutoThreshold {
		t.Fatalf("test graph has %d routers, need >= %d", big.N(), topology.DenseAutoThreshold)
	}
	auto := base
	auto.Topology = big
	want := runtime.GOMAXPROCS(0)
	if want > maxAutoShards {
		want = maxAutoShards
	}
	if want < 2 {
		want = 1 // single-core machines stay serial
	}
	if got := ResolveShards(auto); got != want {
		t.Errorf("auto on %d routers = %d shards, want %d", big.N(), got, want)
	}

	// Every non-shardable feature forces serial even when asked.
	cases := map[string]func(*Scenario){
		"loss":      func(s *Scenario) { s.LossRate = 0.1; s.RetxTimeout = 300 },
		"link rate": func(s *Scenario) { s.LinkRate = 1 },
		"faults": func(s *Scenario) {
			s.RetxTimeout = 300
			s.FaultScript = []fault.Event{{At: 10, Kind: fault.RouterDown, Node: 1}}
		},
		"tracer":    func(s *Scenario) { s.Tracer = &trace.Tracer{} },
		"probcache": func(s *Scenario) { s.Policy = PolicyProbCache },
		"wl factory": func(s *Scenario) {
			s.WorkloadFactory = func(topology.NodeID) (workload.Generator, error) { return nil, nil }
		},
	}
	for name, mutate := range cases {
		sc := testScenario()
		sc.Shards = 4
		mutate(&sc)
		if got := ResolveShards(sc); got != 1 {
			t.Errorf("%s: resolved to %d shards, want serial fallback", name, got)
		}
	}

	neg := testScenario()
	neg.Shards = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative shard count passed validation")
	}
}

// TestRttHeadroomPinned pins the latency histogram's range to the
// documented formula: a full round trip over the worst path — access
// hop, network diameter there and back, origin uplink — widened by
// rttHeadroom for retransmission tails.
func TestRttHeadroomPinned(t *testing.T) {
	sc := testScenario()
	sc.Requests = 2000
	sc.EmitManifest = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	hist, ok := res.Manifest.Metrics.Histograms["latency_ms"]
	if !ok {
		t.Fatal("manifest has no latency histogram")
	}
	maxDist := sc.Topology.ShortestPathsLatency().MaxDist()
	want := 2 * (sc.AccessLatency + 2*maxDist + sc.OriginLatency) * rttHeadroom
	if hist.Hi != want {
		t.Errorf("latency histogram range = %v, want 2*(access + 2*diameter + origin)*%d = %v", hist.Hi, rttHeadroom, want)
	}
	if hist.Lo != 0 {
		t.Errorf("latency histogram starts at %v, want 0", hist.Lo)
	}
}
