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
// Only deterministic-under-sharding configurations are accepted: no
// tracer (the event stream is a globally ordered artifact), no loss,
// faults, probabilistic caching (shared RNG), and no finite link rate
// (shared queueing accumulators). Callers needing those features run
// serially — the sim layer falls back to one shard automatically.
func NewShardedNetwork(se *des.Sharded, shardOf []int32, g *topology.Graph, cat *catalog.Catalog, opts Options) (*Network, error) {
	switch {
	case se == nil:
		return nil, fmt.Errorf("ccn: nil sharded engine")
	case g != nil && len(shardOf) != g.N():
		return nil, fmt.Errorf("ccn: shard map covers %d of %d routers", len(shardOf), g.N())
	case opts.Tracer != nil:
		return nil, fmt.Errorf("ccn: tracing requires serial execution (the trace stream is globally ordered)")
	case opts.LossRate > 0:
		return nil, fmt.Errorf("ccn: lossy fabrics require serial execution (shared loss RNG)")
	case opts.Faults:
		return nil, fmt.Errorf("ccn: fault-aware planes require serial execution")
	case opts.LinkRate > 0:
		return nil, fmt.Errorf("ccn: finite link rate requires serial execution (shared queueing state)")
	case opts.Mode == CacheProb:
		return nil, fmt.Errorf("ccn: probabilistic caching requires serial execution (shared admission RNG)")
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
	n.se = se
	n.shardOf = shardOf
	n.tx = make([]txShard, se.Shards())
	n.pools = make([]recordPool, se.Shards())
	return n, nil
}

// Sharded reports whether the network runs on a sharded engine.
func (n *Network) Sharded() bool { return n.se != nil }
