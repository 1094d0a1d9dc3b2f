// Sharded scenario execution: the drive stage on the conservative
// parallel engine, and the rule that picks it. The topology is
// partitioned deterministically (topology.PartitionGraph), each
// region's routers live on one event-loop shard, and the minimum latency
// over cut edges is the engine's lookahead — no cross-shard packet can
// arrive sooner, so shards safely run ahead of each other by one window.
//
// Determinism is preserved end to end: request identities are dealt in
// global arrival-time order before the run (the serial engine's shared
// counter would allocate them in exactly that order), each shard records
// its completions into a private buffer, and the buffers are merged in
// (completion-time, request-ID) order after the run — the order the
// serial engine fires completion callbacks in — before being replayed
// through the same collector. A scenario run at any shard count
// therefore produces an identical Result.
package sim

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"ccncoord/internal/catalog"
	"ccncoord/internal/ccn"
	"ccncoord/internal/des"
	"ccncoord/internal/topology"
)

// maxAutoShards caps automatic shard selection: beyond ~8 shards the
// window-barrier cost grows faster than the per-shard work shrinks on
// the topology sizes the auto rule targets.
const maxAutoShards = 8

// ResolveShards decides how many event-loop shards the scenario runs
// on. An explicit Shards >= 2 is honored — clamped to the router count —
// unless the scenario is not shardable (see shardBlockers), in which
// case the run falls back to the serial engine. Shards == 1 forces the
// serial engine. Shards == 0 picks automatically: serial below
// topology.DenseAutoThreshold routers — keeping every calibrated-dataset
// artifact on the exact code path that produced it — and
// min(maxAutoShards, GOMAXPROCS) above it.
//
// Callers that need to know *why* an explicit request was downgraded
// should use ResolveShardsReason; this wrapper discards the reason.
func ResolveShards(sc Scenario) int {
	p, _ := ResolveShardsReason(sc)
	return p
}

// ResolveShardsReason resolves the shard count like ResolveShards and
// additionally reports why an explicitly requested multi-shard run
// (Shards >= 2) was downgraded to the serial engine. The reason is
// empty whenever no downgrade happened: the request was honored, the
// caller asked for serial, or the automatic rule (Shards == 0) chose
// serial — auto picking serial is policy, not a fallback.
func ResolveShardsReason(sc Scenario) (parts int, fallback string) {
	n := sc.Topology.N()
	p := sc.Shards
	explicit := p >= 2
	if p == 0 {
		if n < topology.DenseAutoThreshold {
			return 1, ""
		}
		p = runtime.GOMAXPROCS(0)
		if p > maxAutoShards {
			p = maxAutoShards
		}
	}
	if p < 2 {
		return 1, ""
	}
	if blockers := shardBlockers(sc); len(blockers) > 0 {
		if explicit {
			return 1, "scenario not shardable: " + strings.Join(blockers, ", ")
		}
		return 1, ""
	}
	if p > n {
		p = n
	}
	return p, ""
}

// shardBlockers lists the scenario features that keep it off the
// sharded engine: the data plane's own (ccn.ShardBlockers), then a
// custom workload factory, whose generators may share state across
// routers in ways the sim cannot see. An empty list means the scenario
// is shardable.
func shardBlockers(sc Scenario) []string {
	b := ccn.ShardBlockers(sc.netOptions())
	if sc.WorkloadFactory != nil {
		b = append(b, "custom workload factory")
	}
	return b
}

// runSharded is the drive stage on the conservative parallel engine,
// one event-loop shard per region of part. Completions are buffered per
// shard and replayed through the collector after the run, in serial
// completion order.
func runSharded(sc Scenario, part *topology.Partition) (Result, error) {
	se, err := des.NewSharded(part.Parts, part.CutLatency)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	if sc.EngineTelemetry {
		se.EnableTelemetry()
	}
	pl, err := build(sc, func(cat *catalog.Catalog, opts ccn.Options) (*ccn.Network, error) {
		return ccn.NewShardedNetwork(se, part.Of, sc.Topology, cat, opts)
	})
	if err != nil {
		return Result{}, err
	}
	pl.dealRequestIDs()

	// Per-shard completion buffers and error slots. Completion callbacks
	// run on the shard owning the client's first-hop router, so each
	// buffer is touched by exactly one shard.
	nShards := se.Shards()
	bufs := make([][]ccn.RequestResult, nShards)
	errs := make([]error, nShards)
	record := make([]func(ccn.RequestResult), nShards)
	for s := range record {
		record[s] = func(result ccn.RequestResult) { bufs[s] = append(bufs[s], result) }
	}
	for _, p := range pl.procs {
		s := int(part.Of[p.router])
		p.sched, p.done, p.err = se.Shard(s), record[s], &errs[s]
		if err := p.start(); err != nil {
			return Result{}, err
		}
	}

	se.Run()

	for _, e := range errs {
		if e != nil {
			return Result{}, e
		}
	}
	// Merge the per-shard buffers into serial completion order. The key
	// (CompletedAt, Req) is unique per request and matches the serial
	// engine's callback order: simultaneous completions only arise from
	// aggregated client faces at one router, which the serial engine
	// fires in face order — ascending request ID.
	all := bufs[0]
	for _, b := range bufs[1:] {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].CompletedAt != all[j].CompletedAt {
			return all[i].CompletedAt < all[j].CompletedAt
		}
		return all[i].Req < all[j].Req
	})
	for _, result := range all {
		pl.col.observe(result)
	}

	me := ManifestEngine{
		EventsProcessed:  se.Processed(),
		PendingPeak:      se.PendingPeak(),
		Shards:           nShards,
		CrossShardEvents: se.CrossShardEvents(),
	}
	if sc.EngineTelemetry {
		st := se.Stats()
		me.Windows = st.Windows
		me.MeanWindowSpanMs = st.MeanWindowSpanMs
		me.ShardStats = st.PerShard
		me.CrossShardMatrix = st.CrossShardMatrix
	}
	return pl.collect(me)
}

// dealRequestIDs deals the global request identities 1..total into each
// process's ids in arrival order: the order the serial plane's shared
// issue counter allocates them in.
func (pl *pipeline) dealRequestIDs() {
	for _, p := range pl.procs {
		p.ids = make([]int64, 0, p.nReq)
	}
	var next int64
	pl.replayArrivals(func(p *arrivalProc, _ float64) {
		next++
		p.ids = append(p.ids, next)
	})
}
