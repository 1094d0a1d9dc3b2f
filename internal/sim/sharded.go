// Sharded scenario execution: the same measurement as runSerial, driven
// by the conservative parallel engine. The topology is partitioned
// deterministically (topology.PartitionGraph), each region's routers
// live on one event-loop shard, and the minimum latency over cut edges
// is the engine's lookahead — no cross-shard packet can arrive sooner,
// so shards safely run ahead of each other by one window.
//
// Determinism is preserved end to end: request identities are dealt in
// global arrival-time order before the run (the serial engine's shared
// counter would allocate them in exactly that order), each shard records
// its completions into a private buffer, and the buffers are merged in
// (completion-time, request-ID) order after the run — the order the
// serial engine fires completion callbacks in — before being replayed
// through the same aggregation arithmetic. A scenario run at any shard
// count therefore produces an identical Result.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"ccncoord/internal/catalog"
	"ccncoord/internal/ccn"
	"ccncoord/internal/coord"
	"ccncoord/internal/des"
	"ccncoord/internal/metrics"
	"ccncoord/internal/topology"
	"ccncoord/internal/workload"
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
// sharded engine. Features that funnel every event through one piece of
// globally ordered shared state — fault and chaos timelines, the loss
// and probabilistic-admission RNGs, link-queueing accumulators, the
// trace stream, and workload factories with unknown internal sharing —
// run serially instead. An empty list means the scenario is shardable.
func shardBlockers(sc Scenario) []string {
	var b []string
	if sc.faultsEnabled() {
		b = append(b, "fault injection")
	}
	if sc.LossRate != 0 {
		b = append(b, "loss process")
	}
	if sc.LinkRate != 0 {
		b = append(b, "link queueing")
	}
	if sc.Tracer != nil {
		b = append(b, "event tracing")
	}
	if sc.Policy == PolicyProbCache {
		b = append(b, "probabilistic caching")
	}
	if sc.WorkloadFactory != nil {
		b = append(b, "custom workload factory")
	}
	return b
}

// runSharded executes the (already validated) scenario on parts
// event-loop shards.
func runSharded(sc Scenario, parts int) (Result, error) {
	part, err := topology.PartitionGraph(sc.Topology, parts)
	if err != nil {
		return Result{}, fmt.Errorf("sim: partitioning topology: %w", err)
	}
	if part.Parts < 2 || !(part.CutLatency > 0) {
		// A zero-latency cut edge leaves no lookahead to run ahead on;
		// fall back to the serial engine rather than degenerate into
		// lock-step windows. Record the downgrade when the caller asked
		// for shards explicitly, so the manifest does not read as a
		// sharded run that never happened.
		if sc.Shards >= 2 {
			sc.shardFallbackReason = "degenerate partition: no positive-latency cut edge for lookahead"
		}
		return runSerial(sc)
	}
	se, err := des.NewSharded(part.Parts, part.CutLatency)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	if sc.EngineTelemetry {
		se.EnableTelemetry()
	}
	cat, err := catalog.New(sc.CatalogSize, "/sim")
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}

	res := Result{Policy: sc.Policy}

	routers := make([]topology.NodeID, sc.Topology.N())
	for i := range routers {
		routers[i] = topology.NodeID(i)
	}
	prov, err := provisionPolicy(sc, routers, &res)
	if err != nil {
		return Result{}, err
	}

	net, err := ccn.NewShardedNetwork(se, part.Of, sc.Topology, cat, ccn.Options{
		AccessLatency: sc.AccessLatency,
		Stores:        prov.stores,
		Mode:          prov.mode,
		Directory:     prov.directory,
		RetxTimeout:   sc.RetxTimeout,
		Routing:       sc.Routing,
	})
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	if sc.OriginGateway >= 0 {
		err = net.AttachOriginAt(sc.OriginGateway, sc.OriginLatency)
	} else {
		err = net.AttachOriginUniform(sc.OriginLatency)
	}
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	// The latency histogram's range, taken at set-up as in runSerial:
	// the diameter sweep solves the routing trees in parallel, keeping
	// them while the table has room, before the shards start, so the
	// request path does not solve them one at a time under the table's
	// lock.
	maxRTT := 2 * (sc.AccessLatency + 2*net.Routes().MaxDist() + sc.OriginLatency) * rttHeadroom

	// Request quotas, identical to the serial layout.
	interArrival := sc.MeanInterArrival
	if interArrival <= 0 {
		interArrival = 1
	}
	total := sc.Requests + sc.Warmup
	perRouter := total / len(routers)
	extra := total % len(routers)
	warmPerRouter := sc.Warmup / len(routers)
	warmExtra := sc.Warmup % len(routers)
	reqsOf := func(i int) (nReq, nWarm int) {
		nReq = perRouter
		if i < extra {
			nReq++
		}
		nWarm = warmPerRouter
		if i < warmExtra {
			nWarm++
		}
		return nReq, nWarm
	}

	// Deal the global request identities before the run; the serial
	// engine's shared counter would allocate them in exactly this order.
	ids := assignRequestIDs(sc.Seed, len(routers), interArrival, reqsOf)

	// Per-shard completion buffers and error slots. Completion callbacks
	// run on the shard owning the client's first-hop router, so each
	// buffer is touched by exactly one shard; they are merged and
	// replayed single-threaded after the run.
	nShards := se.Shards()
	bufs := make([][]ccn.RequestResult, nShards)
	errs := make([]error, nShards)
	measuredCBs := make([]func(ccn.RequestResult), nShards)
	for s := 0; s < nShards; s++ {
		s := s
		measuredCBs[s] = func(result ccn.RequestResult) { bufs[s] = append(bufs[s], result) }
	}
	warmCB := func(ccn.RequestResult) {}

	var issue func(p *shardArrivalProc)
	issue = func(p *shardArrivalProc) {
		s := p.shard.ID()
		if errs[s] != nil {
			return // this shard's stream already failed; drain quietly
		}
		id := p.gen.Next()
		cb := measuredCBs[s]
		if p.k < p.nWarm {
			cb = warmCB
		}
		reqID := p.ids[p.k]
		p.k++
		if err := net.RequestWithID(p.router, id, reqID, cb); err != nil {
			errs[s] = fmt.Errorf("sim: issuing request at router %d: %w", p.router, err)
			return
		}
		if p.k < len(p.ids) {
			p.t += p.rng.ExpFloat64() * interArrival
			if err := p.shard.At(p.t, p.tick); err != nil {
				errs[s] = fmt.Errorf("sim: scheduling request: %w", err)
			}
		}
	}

	family, err := workload.NewZipfFamily(sc.ZipfS, sc.CatalogSize)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	for i, r := range routers {
		gen, err := family.Gen(WorkloadSeed(sc.Seed, i))
		if err != nil {
			return Result{}, fmt.Errorf("sim: workload for router %d: %w", r, err)
		}
		nReq, nWarm := reqsOf(i)
		if nReq == 0 {
			continue
		}
		p := &shardArrivalProc{
			router: r,
			shard:  se.Shard(int(part.Of[r])),
			gen:    gen,
			rng:    rand.New(rand.NewSource(ArrivalSeed(sc.Seed, i))),
			ids:    ids[i],
			nWarm:  nWarm,
		}
		p.tick = func() { issue(p) }
		p.t = p.rng.ExpFloat64() * interArrival
		if err := p.shard.At(p.t, p.tick); err != nil {
			return Result{}, fmt.Errorf("sim: scheduling request: %w", err)
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
	measured := len(all)
	if measured == 0 {
		return Result{}, fmt.Errorf("sim: no measured requests completed")
	}

	// Replay the merged completions through the same aggregation
	// arithmetic runSerial applies in its completion callback, in the
	// same order, so every mean and histogram is bit-identical.
	reg := metrics.NewRegistry()
	latency := reg.Mean("latency_ms")
	hops := reg.Mean("hops")
	peerHops := reg.Mean("peer_hops")
	tierLat := [3]*metrics.Mean{
		reg.Mean("tier_latency_local_ms"),
		reg.Mean("tier_latency_peer_ms"),
		reg.Mean("tier_latency_origin_ms"),
	}
	latencyHist, err := reg.Histogram("latency_ms", 0, math.Max(maxRTT, 1), 2048)
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	counts := reg.Counter("served_by")
	peerServes := make(map[topology.NodeID]int64)
	var reportCounts []map[catalog.ID]int64
	if sc.CollectReports {
		reportCounts = make([]map[catalog.ID]int64, len(routers))
		for i := range reportCounts {
			reportCounts[i] = make(map[catalog.ID]int64)
		}
	}
	var avail metrics.Availability
	for _, result := range all {
		if sc.Observer != nil {
			sc.Observer(result)
		}
		counts.Inc(result.ServedBy.String())
		if result.Failed {
			avail.ObserveFailed()
			continue
		}
		avail.ObserveOK()
		latency.Observe(result.Latency())
		latencyHist.Observe(result.Latency())
		hops.Observe(float64(result.Hops))
		tierLat[int(result.ServedBy)].Observe(result.Latency())
		if result.ServedBy == ccn.ServedPeer {
			peerHops.Observe(float64(result.Hops))
			peerServes[result.Server]++
		}
		if reportCounts != nil {
			reportCounts[result.Router][result.Content]++
		}
	}

	res.Requests = measured
	res.OriginLoad = float64(counts.Get("origin")) / float64(measured)
	res.LocalHit = float64(counts.Get("local")) / float64(measured)
	res.PeerHit = float64(counts.Get("peer")) / float64(measured)
	res.MeanLatency = latency.Value()
	res.LatencyP50 = latencyHist.Quantile(0.50)
	res.LatencyP95 = latencyHist.Quantile(0.95)
	res.LatencyP99 = latencyHist.Quantile(0.99)
	res.MeanHops = hops.Value()
	res.TierLatency = TierLatencies{
		Local:  tierLat[int(ccn.ServedLocal)].Value(),
		Peer:   tierLat[int(ccn.ServedPeer)].Value(),
		Origin: tierLat[int(ccn.ServedOrigin)].Value(),
	}
	res.PeerHops = peerHops.Value()
	if len(peerServes) > 0 {
		var total, worst int64
		for _, c := range peerServes {
			total += c
			if c > worst {
				worst = c
			}
		}
		mean := float64(total) / float64(len(peerServes))
		res.PeerLoadImbalance = float64(worst) / mean
	}
	res.InterestTransmissions = net.InterestTransmissions()
	res.DataTransmissions = net.DataTransmissions()
	res.DroppedInterests = net.DroppedInterests()
	res.DroppedData = net.DroppedData()
	res.Retransmissions = net.Retransmissions()
	res.MeanQueueingDelay = net.MeanQueueingDelay()
	res.QueuedPackets = net.QueuedPackets()
	res.FailedRequests = net.FailedRequests()
	res.Availability = avail.Value()
	res.FaultDrops = net.FaultDrops()
	res.ExpiredInterests = net.ExpiredInterests()
	res.RouteRecomputes = net.RouteRecomputes()
	if reportCounts != nil {
		res.Reports = make([]coord.Report, len(routers))
		for i, r := range routers {
			res.Reports[i] = coord.Report{Router: r, Counts: reportCounts[i]}
		}
	}
	if sc.EmitManifest {
		me := ManifestEngine{
			EventsProcessed:  se.Processed(),
			PendingPeak:      se.PendingPeak(),
			Shards:           se.Shards(),
			CrossShardEvents: se.CrossShardEvents(),
		}
		if sc.EngineTelemetry {
			st := se.Stats()
			me.Windows = st.Windows
			me.MeanWindowSpanMs = st.MeanWindowSpanMs
			me.ShardStats = st.PerShard
			me.CrossShardMatrix = st.CrossShardMatrix
		}
		res.Manifest = buildManifest(sc, res, me, net, reg, avail.Snapshot())
	}
	return res, nil
}

// shardArrivalProc is one router's self-rescheduling Poisson arrival
// process pinned to the shard owning the router. Its request identities
// were dealt up front (see assignRequestIDs); k indexes both the next
// identity and the warmup boundary.
type shardArrivalProc struct {
	router topology.NodeID
	shard  *des.Shard
	gen    workload.Generator
	rng    *rand.Rand
	tick   func()
	t      float64
	ids    []int64 // precomputed global request IDs, arrival order
	k      int     // requests issued so far
	nWarm  int     // leading unmeasured requests
}

// assignRequestIDs replays every router's arrival clock (the same
// ArrivalSeed streams the live processes draw from) and deals the
// global request identities 1..total in arrival-time order — the order
// the serial engine's shared counter allocates them in. Exact-time ties
// across routers break by router index, matching the serial engine's
// scheduling order for simultaneous arrivals; between independent
// continuous exponential clocks such ties otherwise have measure zero.
// The result is per-router: ids[i][k] is the identity of router i's
// k-th arrival (warmup included).
func assignRequestIDs(seed int64, nRouters int, interArrival float64, reqsOf func(int) (int, int)) [][]int64 {
	type cursor struct {
		i   int // router index
		rng *rand.Rand
		t   float64 // pending arrival time
		k   int     // arrivals dealt so far
		n   int     // total arrivals
	}
	ids := make([][]int64, nRouters)
	h := make([]*cursor, 0, nRouters)
	less := func(a, b *cursor) bool {
		if a.t != b.t {
			return a.t < b.t
		}
		return a.i < b.i
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < len(h) && less(h[l], h[best]) {
				best = l
			}
			if r < len(h) && less(h[r], h[best]) {
				best = r
			}
			if best == i {
				return
			}
			h[i], h[best] = h[best], h[i]
			i = best
		}
	}
	for i := 0; i < nRouters; i++ {
		nReq, _ := reqsOf(i)
		if nReq == 0 {
			continue
		}
		c := &cursor{i: i, rng: rand.New(rand.NewSource(ArrivalSeed(seed, i))), n: nReq}
		c.t = c.rng.ExpFloat64() * interArrival
		ids[i] = make([]int64, 0, nReq)
		h = append(h, c)
	}
	// Heapify (cursors were appended in router order).
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	var next int64
	for len(h) > 0 {
		c := h[0]
		next++
		ids[c.i] = append(ids[c.i], next)
		c.k++
		if c.k == c.n {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			c.t += c.rng.ExpFloat64() * interArrival
		}
		siftDown(0)
	}
	return ids
}
