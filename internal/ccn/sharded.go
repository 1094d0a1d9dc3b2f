// Sharded execution of the CCN data plane: the same router state and
// forwarding logic as the serial plane, driven by a des.Sharded engine
// with each router's state owned by exactly one shard. Every event at a
// router executes on its owning shard; cross-shard interactions (an
// interest forwarded to a neighbor in another shard, data returning
// across the boundary) ride network links, whose latency is at least
// the partition's cut latency — the engine's conservative lookahead —
// so the window protocol never reorders them.
package ccn

import (
	"fmt"
	"strings"

	"ccncoord/internal/catalog"
	"ccncoord/internal/des"
	"ccncoord/internal/topology"
)

// NewShardedNetwork builds a CCN data plane driven by a sharded engine.
// shardOf maps every router to its owning shard (normally a
// topology.PartitionGraph assignment), and the engine's lookahead must
// be at most the partition's cut latency or cross-shard sends will be
// rejected at forwarding time.
//
// Only deterministic-under-sharding configurations are accepted: the
// options must have no ShardBlockers. Callers needing those features run
// serially — the sim layer falls back to one shard automatically.
func NewShardedNetwork(se *des.Sharded, shardOf []int32, g *topology.Graph, cat *catalog.Catalog, opts Options) (*Network, error) {
	switch {
	case se == nil:
		return nil, fmt.Errorf("ccn: nil sharded engine")
	case g != nil && len(shardOf) != g.N():
		return nil, fmt.Errorf("ccn: shard map covers %d of %d routers", len(shardOf), g.N())
	}
	if b := ShardBlockers(opts); len(b) > 0 {
		return nil, fmt.Errorf("ccn: %s require serial execution", strings.Join(b, ", "))
	}
	for r, s := range shardOf {
		if s < 0 || int(s) >= se.Shards() {
			return nil, fmt.Errorf("ccn: router %d mapped to shard %d, engine has %d", r, s, se.Shards())
		}
	}
	n, err := buildNetwork(g, cat, opts)
	if err != nil {
		return nil, err
	}
	n.execs = make([]executor, se.Shards())
	for i := range n.execs {
		n.execs[i].eng = se.Shard(i)
	}
	n.shardOf = shardOf
	return n, nil
}

// ShardBlockers lists, in a fixed order, the options that keep a plane
// off the sharded engine. Each funnels every event through one piece of
// globally ordered shared state: the fault timeline, the loss RNG, the
// link-queueing accumulators, the trace stream, and the probabilistic
// admission RNG. An empty list means the options can drive a sharded
// plane. The names are user-facing: sim reports them as its shard
// fallback reason.
func ShardBlockers(opts Options) []string {
	var b []string
	if opts.Faults {
		b = append(b, "fault injection")
	}
	if opts.LossRate != 0 {
		b = append(b, "loss process")
	}
	if opts.LinkRate != 0 {
		b = append(b, "link queueing")
	}
	if opts.Tracer != nil {
		b = append(b, "event tracing")
	}
	if opts.Mode == CacheProb {
		b = append(b, "probabilistic caching")
	}
	return b
}
