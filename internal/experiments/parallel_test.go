package experiments

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"ccncoord/internal/sim"
	"ccncoord/internal/topology"
)

// withWorkers runs fn under a fixed pool width and restores the default.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	SetWorkers(n)
	defer SetWorkers(0)
	fn()
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Errorf("default Workers() = %d, want >= 1", got)
	}
	SetWorkers(-5)
	if got := Workers(); got < 1 {
		t.Errorf("Workers() after negative set = %d, want default >= 1", got)
	}
}

// TestAllFiguresParallelMatchesSerial is the determinism contract of the
// worker pool: every figure of the paper must be identical — exact float
// equality, not tolerance — whether computed serially or fanned out.
func TestAllFiguresParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates all 10 figures twice")
	}
	var serial, parallel []Figure
	withWorkers(t, 1, func() {
		var err error
		if serial, err = AllFigures(); err != nil {
			t.Fatal(err)
		}
	})
	withWorkers(t, 8, func() {
		var err error
		if parallel, err = AllFigures(); err != nil {
			t.Fatal(err)
		}
	})
	if len(serial) != len(parallel) {
		t.Fatalf("serial produced %d figures, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("figure %s differs between serial and parallel runs", serial[i].ID)
		}
	}
}

// TestAblationPolicyParallelMatchesSerial checks the same contract for a
// simulation-backed table: fixed seeds must make the fan-out invisible.
func TestAblationPolicyParallelMatchesSerial(t *testing.T) {
	var serial, parallel Table
	withWorkers(t, 1, func() {
		var err error
		if serial, err = AblationPolicy(1000); err != nil {
			t.Fatal(err)
		}
	})
	withWorkers(t, 8, func() {
		var err error
		if parallel, err = AblationPolicy(1000); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("ablation-policy differs between serial and parallel runs:\n%v\nvs\n%v",
			serial.Rows, parallel.Rows)
	}
}

func TestRunReplicas(t *testing.T) {
	sc := sim.Scenario{
		Topology:      topology.USA(),
		CatalogSize:   5000,
		ZipfS:         0.8,
		Capacity:      100,
		Coordinated:   50,
		Policy:        sim.PolicyCoordinated,
		Requests:      1000,
		Seed:          7,
		AccessLatency: 5,
		OriginLatency: 60,
		OriginGateway: -1,
	}
	results, err := RunReplicas(sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	// Replica 0 must be the plain run of the base scenario.
	base, err := sim.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].OriginLoad != base.OriginLoad || results[0].MeanLatency != base.MeanLatency {
		t.Errorf("replica 0 (%+v) differs from base run (%+v)", results[0], base)
	}
	// Replicas must actually differ (independent seeds).
	if results[1].MeanLatency == results[0].MeanLatency &&
		results[2].MeanLatency == results[0].MeanLatency {
		t.Error("all replicas produced identical latency; seeds not decorrelated")
	}
	if _, err := RunReplicas(sc, 0); err == nil {
		t.Error("RunReplicas with 0 replicas should fail")
	}
}

func TestReplicaStats(t *testing.T) {
	if s := replicaStats(nil); s.Mean != 0 || s.StdErr != 0 {
		t.Errorf("empty stats = %+v", s)
	}
	if s := replicaStats([]float64{4}); s.Mean != 4 || s.StdErr != 0 {
		t.Errorf("single-sample stats = %+v", s)
	}
	s := replicaStats([]float64{1, 2, 3})
	if s.Mean != 2 {
		t.Errorf("mean = %v, want 2", s.Mean)
	}
	// variance = 1, stderr = sqrt(1/3)
	if diff := s.StdErr - 0.5773502691896258; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("stderr = %v", s.StdErr)
	}
}

func TestAblationReplicas(t *testing.T) {
	tab, err := AblationReplicas(1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Headers) {
			t.Errorf("row %v has %d cells, want %d", row, len(row), len(tab.Headers))
		}
	}
}

// TestShardFallbacksSorted pins the shard-fallback report: scenarios
// noted from concurrent workers, in any order and any number of times,
// report each reason once and in sorted order.
func TestShardFallbacksSorted(t *testing.T) {
	lossy := sim.Scenario{Topology: topology.USA(), Shards: 4, LossRate: 0.01, RetxTimeout: 200}
	queued := sim.Scenario{Topology: topology.USA(), Shards: 4, LinkRate: 50}
	serial := sim.Scenario{Topology: topology.USA(), Shards: 1, LossRate: 0.01, RetxTimeout: 200}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, sc := range [][]sim.Scenario{{lossy, queued, serial}, {serial, queued, lossy}}[i%2] {
				noteShardFallback(sc)
			}
		}(i)
	}
	wg.Wait()
	got := ShardFallbacks()
	if !sort.StringsAreSorted(got) {
		t.Errorf("ShardFallbacks() = %q, not sorted", got)
	}
	for _, want := range []string{"scenario not shardable: loss process", "scenario not shardable: link queueing"} {
		n := 0
		for _, r := range got {
			if r == want {
				n++
			}
		}
		if n != 1 {
			t.Errorf("reason %q reported %d times in %q, want once", want, n, got)
		}
	}
}
