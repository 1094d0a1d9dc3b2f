package ccncoord

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"ccncoord/internal/benchjson"
)

// TestBenchBaseline checks the committed BENCH_<date>.json performance
// baselines: every file must parse, carry a date matching its filename,
// and contain a record for every benchmark in the suite — so a stale
// baseline (regenerated before a benchmark was added) fails loudly
// instead of silently missing the new numbers. Regenerate from the
// module root with
//
//	go run ./cmd/ccnbench -pkg '. ./internal/ccn@20x ./internal/cache@1000000x ./internal/coord@50x'
//
// and delete the file it replaces.
func TestBenchBaseline(t *testing.T) {
	matches, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no committed BENCH_<date>.json baseline; run cmd/ccnbench")
	}
	// Top-level benchmarks of bench_test.go plus their fixed
	// sub-benchmarks, then the per-layer rows ccnbench sweeps in from
	// internal/ccn, internal/cache and internal/coord. Keep in sync when
	// adding benchmarks.
	required := []string{
		"BenchmarkTableI", "BenchmarkTableII", "BenchmarkTableIII", "BenchmarkTableIV",
		"BenchmarkFig4", "BenchmarkFig5", "BenchmarkFig6", "BenchmarkFig7",
		"BenchmarkFig8", "BenchmarkFig9", "BenchmarkFig10", "BenchmarkFig11",
		"BenchmarkFig12", "BenchmarkFig13",
		"BenchmarkModelVsSim",
		"BenchmarkAblationAssignment", "BenchmarkAblationPolicy",
		"BenchmarkAblationSolver", "BenchmarkAblationCoordinator",
		"BenchmarkStabilityAnalysis", "BenchmarkAblationResilience",
		"BenchmarkAdaptiveConvergence",
		"BenchmarkOptimizePerTopology/Abilene", "BenchmarkOptimizePerTopology/CERNET",
		"BenchmarkOptimizePerTopology/GEANT", "BenchmarkOptimizePerTopology/US-A",
		"BenchmarkAblationLoss", "BenchmarkAblationCongestion",
		"BenchmarkMetricVariant", "BenchmarkAdaptiveDrift",
		"BenchmarkSimRun/Coordinated/US-A", "BenchmarkSimRun/LRU/US-A",
		"BenchmarkSimulationThroughput",
		"BenchmarkAPSP/Abilene", "BenchmarkAPSP/CERNET",
		"BenchmarkAPSP/GEANT", "BenchmarkAPSP/US-A",
		"BenchmarkTopologyAll",
		"BenchmarkRoutingScale/Dense/n=100",
		"BenchmarkRoutingScale/LRU/n=100", "BenchmarkRoutingScale/LRU/n=1000",
		"BenchmarkRoutingScale/LRU/n=10000", "BenchmarkRoutingScale/LRU/n=100000",
		"BenchmarkForwardHop", "BenchmarkLRUInsertLookup",
		"BenchmarkRunEpoch/reports", "BenchmarkRunEpoch/tally",
	}
	for _, n := range []int{100, 1000, 10000, 100000} {
		for _, p := range []int{1, 2, 4, 8} {
			required = append(required, fmt.Sprintf("BenchmarkShardedDES/n=%d/shards=%d", n, p))
		}
	}
	dateRe := regexp.MustCompile(`^BENCH_(\d{4}-\d{2}-\d{2})\.json$`)
	for _, path := range matches {
		m := dateRe.FindStringSubmatch(filepath.Base(path))
		if m == nil {
			t.Errorf("%s: name does not match BENCH_<YYYY-MM-DD>.json", path)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		suite, err := benchjson.Read(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if suite.Date != m[1] {
			t.Errorf("%s: date field %q does not match filename", path, suite.Date)
		}
		for _, name := range required {
			rec := suite.Find(name)
			if rec == nil {
				t.Errorf("%s: missing benchmark %q", path, name)
				continue
			}
			if rec.NsPerOp <= 0 || rec.Iterations <= 0 {
				t.Errorf("%s: %s has empty measurements: %+v", path, name, rec)
			}
		}
		// The forwarding-hop row is only useful with its per-hop columns,
		// and a plane that allocates per hop again must not be recorded
		// as the baseline.
		if rec := suite.Find("BenchmarkForwardHop"); rec != nil {
			for _, unit := range []string{"ns/hop", "allocs/hop"} {
				if _, ok := rec.Extra[unit]; !ok {
					t.Errorf("%s: BenchmarkForwardHop missing %q column", path, unit)
				}
			}
			if rec.Extra["allocs/hop"] > 0.1 {
				t.Errorf("%s: forwarding allocates %.2f times per hop, want <= 0.1", path, rec.Extra["allocs/hop"])
			}
		}
		// A coordination epoch is read in ms, next to the daemon's
		// replan_wall_ms.
		for _, name := range []string{"BenchmarkRunEpoch/reports", "BenchmarkRunEpoch/tally"} {
			if rec := suite.Find(name); rec != nil {
				if _, ok := rec.Extra["ms/epoch"]; !ok {
					t.Errorf("%s: %s missing \"ms/epoch\" column", path, name)
				}
			}
		}
		// The sharded-engine scale sweep must carry its custom columns,
		// and — when the baseline was recorded on hardware that can
		// actually run 4 shards in parallel — show the ≥2× wall-clock
		// speedup the engine exists for. Single-core runners record
		// speedup ≈ 1 (the sweep still measures window overhead and
		// cross-shard fractions there), so the parallel-scaling gate
		// binds only on a ≥4-core recording.
		if rec := suite.Find("BenchmarkShardedDES/n=10000/shards=4"); rec != nil {
			for _, unit := range []string{"events/s", "speedup", "xfrac", "cores"} {
				if _, ok := rec.Extra[unit]; !ok {
					t.Errorf("%s: BenchmarkShardedDES/n=10000/shards=4 missing %q column", path, unit)
				}
			}
			if rec.Extra["cores"] >= 4 && rec.Extra["speedup"] < 2 {
				t.Errorf("%s: 4-shard speedup %.2f on a %g-core recording, want >= 2", path, rec.Extra["speedup"], rec.Extra["cores"])
			}
			if !(rec.Extra["xfrac"] > 0) {
				t.Errorf("%s: sharded sweep reports no cross-shard events (xfrac = %g)", path, rec.Extra["xfrac"])
			}
		}
	}
}
