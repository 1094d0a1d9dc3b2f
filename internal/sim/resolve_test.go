package sim

import (
	"io"
	"runtime"
	"strings"
	"testing"

	"ccncoord/internal/topology"
	"ccncoord/internal/trace"
)

// discardTracer builds a tracer that writes nowhere, just to flip the
// scenario into its traced (non-shardable) configuration.
func discardTracer(t *testing.T) *trace.Tracer {
	t.Helper()
	tr, err := trace.New(io.Discard, 1)
	if err != nil {
		t.Fatalf("building tracer: %v", err)
	}
	return tr
}

// TestResolveShardsReasonTable pins the shard-resolution rule at its
// edges: explicit requests clamp to the router count, explicit
// requests on non-shardable scenarios fall back to serial WITH a
// reason, Shards == 1 and the auto rule stay silent.
func TestResolveShardsReasonTable(t *testing.T) {
	n := testScenario().Topology.N()
	if n < 4 {
		t.Fatalf("test topology too small: %d routers", n)
	}
	lossy := func(sc Scenario) Scenario {
		sc.LossRate = 0.05
		sc.RetxTimeout = 300
		return sc
	}
	cases := []struct {
		name       string
		mutate     func(Scenario) Scenario
		wantParts  int
		wantReason string // "" = no fallback; otherwise a required substring
	}{
		{
			name:      "explicit serial",
			mutate:    func(sc Scenario) Scenario { sc.Shards = 1; return sc },
			wantParts: 1,
		},
		{
			name:      "explicit honored",
			mutate:    func(sc Scenario) Scenario { sc.Shards = 4; return sc },
			wantParts: 4,
		},
		{
			name:      "explicit above router count clamps",
			mutate:    func(sc Scenario) Scenario { sc.Shards = n + 10; return sc },
			wantParts: n,
		},
		{
			name:       "explicit on lossy scenario falls back",
			mutate:     func(sc Scenario) Scenario { sc = lossy(sc); sc.Shards = 4; return sc },
			wantParts:  1,
			wantReason: "loss process",
		},
		{
			name: "explicit on traced scenario falls back",
			mutate: func(sc Scenario) Scenario {
				sc.Shards = 2
				sc.Tracer = discardTracer(t)
				return sc
			},
			wantParts:  1,
			wantReason: "event tracing",
		},
		{
			name: "fallback reason joins every blocker",
			mutate: func(sc Scenario) Scenario {
				sc = lossy(sc)
				sc.Shards = 2
				sc.Tracer = discardTracer(t)
				return sc
			},
			wantParts:  1,
			wantReason: "loss process, event tracing",
		},
		{
			name:      "auto below threshold is serial without reason",
			mutate:    func(sc Scenario) Scenario { sc.Shards = 0; return sc },
			wantParts: 1,
		},
		{
			name:      "auto on lossy scenario is silent",
			mutate:    func(sc Scenario) Scenario { sc = lossy(sc); sc.Shards = 0; return sc },
			wantParts: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.mutate(testScenario())
			parts, reason := ResolveShardsReason(sc)
			if parts != tc.wantParts {
				t.Errorf("parts = %d, want %d", parts, tc.wantParts)
			}
			if tc.wantReason == "" && reason != "" {
				t.Errorf("unexpected fallback reason %q", reason)
			}
			if tc.wantReason != "" && !strings.Contains(reason, tc.wantReason) {
				t.Errorf("reason %q does not mention %q", reason, tc.wantReason)
			}
			if got := ResolveShards(sc); got != parts {
				t.Errorf("ResolveShards = %d, ResolveShardsReason = %d", got, parts)
			}
		})
	}
}

// TestResolveShardsAutoThresholdBoundary pins the auto rule exactly at
// the auto-shard threshold: one router below stays serial, at the
// threshold the rule engages (bounded by GOMAXPROCS and the auto cap).
func TestResolveShardsAutoThresholdBoundary(t *testing.T) {
	build := func(n int) Scenario {
		g, err := topology.Ring(n, 1)
		if err != nil {
			t.Fatalf("building %d-ring: %v", n, err)
		}
		sc := testScenario()
		sc.Topology = g
		sc.Shards = 0
		return sc
	}
	below := build(topology.DenseAutoThreshold - 1)
	if parts, reason := ResolveShardsReason(below); parts != 1 || reason != "" {
		t.Errorf("below threshold: got (%d, %q), want (1, \"\")", parts, reason)
	}
	at := build(topology.DenseAutoThreshold)
	parts, reason := ResolveShardsReason(at)
	if reason != "" {
		t.Errorf("at threshold: unexpected fallback reason %q", reason)
	}
	want := runtime.GOMAXPROCS(0)
	if want > 8 {
		want = 8
	}
	if want < 2 {
		want = 1 // single-proc hosts resolve to serial
	}
	if parts != want {
		t.Errorf("at threshold: parts = %d, want %d (GOMAXPROCS-bounded)", parts, want)
	}
}

// TestManifestRecordsShardFallback runs a real (small) simulation with
// an explicitly requested shard count the scenario cannot honor and
// asserts the run manifest surfaces the downgrade; honored and serial
// runs must keep the field empty so pre-existing manifests stay
// byte-identical.
func TestManifestRecordsShardFallback(t *testing.T) {
	sc := testScenario()
	sc.Requests = 2000
	sc.CatalogSize = 1000
	sc.Shards = 4
	sc.LossRate = 0.05
	sc.RetxTimeout = 300
	sc.EmitManifest = true
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("lossy run: %v", err)
	}
	reason := res.Manifest.Engine.ShardFallbackReason
	if !strings.Contains(reason, "loss process") {
		t.Errorf("manifest fallback reason %q does not mention the loss process", reason)
	}
	if res.Manifest.Engine.Shards != 1 {
		t.Errorf("fallback run recorded %d shards, want 1", res.Manifest.Engine.Shards)
	}

	sc = testScenario()
	sc.Requests = 2000
	sc.CatalogSize = 1000
	sc.Shards = 1
	sc.EmitManifest = true
	res, err = Run(sc)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if got := res.Manifest.Engine.ShardFallbackReason; got != "" {
		t.Errorf("serial run recorded fallback reason %q, want empty", got)
	}
}
