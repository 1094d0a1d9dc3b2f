// The run pipeline: build → provision → drive → collect. Run builds a
// scenario once — catalog, chaos compile, provisioning, data plane,
// origin, collector, and one arrival process per router — and hands it
// to the drive stage of the engine it resolved to: runSerial or
// runSharded. Both drives end in the same collect stage. Only the drive
// stage knows which engine runs.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"ccncoord/internal/cache"
	"ccncoord/internal/catalog"
	"ccncoord/internal/ccn"
	"ccncoord/internal/coord"
	"ccncoord/internal/des"
	"ccncoord/internal/fault"
	"ccncoord/internal/metrics"
	"ccncoord/internal/topology"
	"ccncoord/internal/trace"
	"ccncoord/internal/workload"
)

// pipeline is a built and provisioned scenario: what the set-up stage
// hands to a drive stage, and the drive stage to collect.
type pipeline struct {
	sc Scenario
	// res carries the placement's coordination cost from provisioning;
	// the drive stage adds the fields only it measures.
	res     Result
	routers []topology.NodeID
	prov    provisioned
	chaos   *fault.CompiledChaos // nil without a chaos scenario
	net     *ccn.Network
	// procs holds the arrival process of every router with a nonzero
	// request quota, in router order.
	procs        []*arrivalProc
	interArrival float64 // per-router mean inter-arrival time (ms)
	col          *collector
}

// build runs the set-up both engines share. newNet constructs the data
// plane on the drive's engine from the scenario's options.
func build(sc Scenario, newNet func(*catalog.Catalog, ccn.Options) (*ccn.Network, error)) (*pipeline, error) {
	cat, err := catalog.New(sc.CatalogSize, "/sim")
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	pl := &pipeline{sc: sc, res: Result{Policy: sc.Policy}, interArrival: sc.MeanInterArrival}
	if pl.interArrival == 0 {
		pl.interArrival = 1
	}
	// Expand the chaos scenario against the topology up front; Validate
	// already proved it compiles.
	if sc.Chaos != nil {
		if pl.chaos, err = sc.Chaos.Compile(sc.Topology); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	pl.routers = make([]topology.NodeID, sc.Topology.N())
	for i := range pl.routers {
		pl.routers[i] = topology.NodeID(i)
	}
	if pl.prov, err = provisionPolicy(sc, pl.routers, &pl.res); err != nil {
		return nil, err
	}

	opts := sc.netOptions()
	opts.Stores, opts.Directory = pl.prov.stores, pl.prov.directory
	if pl.chaos != nil {
		// Degraded-mode overlays: plain LRU stores of each router's full
		// capacity, built lazily only if the plane ever actually degrades.
		opts.DegradedStores = func(r topology.NodeID) (cache.Store, error) {
			return cache.NewLRU(max(int(pl.prov.capOf(r)), 1))
		}
	}
	if pl.net, err = newNet(cat, opts); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if sc.OriginGateway >= 0 {
		err = pl.net.AttachOriginAt(sc.OriginGateway, sc.OriginLatency)
	} else {
		err = pl.net.AttachOriginUniform(sc.OriginLatency)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	// The histogram range covers the worst possible round trip — the
	// leading 2 converts the one-way sum (access latency + there-and-back
	// network diameter + origin uplink) to a round trip, and rttHeadroom
	// widens it for retransmission delays. Samples past the headroom
	// (deep retry backoff) land in the histogram's overflow counter and
	// saturate quantile estimates at the range edge instead of skewing
	// them. net.Routes() is the routing table the plane forwards with:
	// its diameter sweep solves the routing trees in parallel, before any
	// engine starts, so the request path reads published trees without
	// a lock instead of solving them one at a time under it.
	maxRTT := 2 * (sc.AccessLatency + 2*pl.net.Routes().MaxDist() + sc.OriginLatency) * rttHeadroom
	if pl.col, err = newCollector(sc, maxRTT); err != nil {
		return nil, err
	}
	return pl, pl.buildArrivals()
}

// buildArrivals builds every router's workload generator and arrival
// process. Requests and warmup are split evenly across routers, the
// first total%n routers taking one extra. The default stationary
// workload shares one immutable Zipf distribution across routers — the
// per-(s, N) sampler setup is paid once, and per-router generators
// differ only in their RNG stream.
func (pl *pipeline) buildArrivals() error {
	sc := pl.sc
	var family *workload.ZipfFamily
	if sc.WorkloadFactory == nil {
		var err error
		if family, err = workload.NewZipfFamily(sc.ZipfS, sc.CatalogSize); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	n := len(pl.routers)
	for i, r := range pl.routers {
		var gen workload.Generator
		var err error
		if sc.WorkloadFactory != nil {
			gen, err = sc.WorkloadFactory(r)
		} else {
			gen, err = family.Gen(WorkloadSeed(sc.Seed, i))
		}
		if err != nil {
			return fmt.Errorf("sim: workload for router %d: %w", r, err)
		}
		if gen == nil {
			return fmt.Errorf("sim: nil workload generator for router %d", r)
		}
		if fc := pl.chaos; fc != nil && fc.FlashCrowd != nil {
			if gen, err = workload.NewFlashCrowd(gen, fc.FlashCrowd.AfterRequests, fc.FlashCrowd.Rank, sc.CatalogSize); err != nil {
				return fmt.Errorf("sim: flash crowd for router %d: %w", r, err)
			}
		}
		nReq := quota(sc.Requests+sc.Warmup, n, i)
		if nReq == 0 {
			continue
		}
		p := &arrivalProc{pl: pl, router: r, gen: gen, rng: arrivalClock(sc.Seed, i), nReq: nReq, nWarm: quota(sc.Warmup, n, i)}
		p.t = p.rng.ExpFloat64() * pl.interArrival
		pl.procs = append(pl.procs, p)
	}
	return nil
}

// quota is router i's share of total requests split over n routers.
func quota(total, n, i int) int {
	if i < total%n {
		return total/n + 1
	}
	return total / n
}

// arrivalClock returns a fresh copy of router i's arrival clock.
func arrivalClock(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(ArrivalSeed(seed, i)))
}

// arrivalProc is one router's self-rescheduling Poisson arrival process.
// Exactly one event per process is pending at any time; tick is the
// single closure the process reschedules, so steady-state arrival
// scheduling allocates nothing per request. Arrivals are scheduled
// lazily — the next gap and content are drawn when one fires — so the
// pending event count stays O(routers + in-flight), not O(requests).
type arrivalProc struct {
	pl     *pipeline
	router topology.NodeID
	gen    workload.Generator
	rng    *rand.Rand // arrival clock; draws one ExpFloat64 per request
	tick   func()
	t      float64 // absolute time of the pending arrival
	k      int     // requests issued so far
	nReq   int     // total requests to issue
	nWarm  int     // leading unmeasured requests

	// The drive stage sets these before start: the engine that owns the
	// router, the measured-completion callback, and the error slot whose
	// first failure stops the stream.
	sched *des.Engine
	done  func(ccn.RequestResult)
	err   *error
	// ids holds the request identities dealt before a sharded run (see
	// dealRequestIDs), indexed by k; nil draws each from the plane's
	// serial issue counter.
	ids []int64
}

// start schedules the process's first arrival.
func (p *arrivalProc) start() error {
	p.tick = p.fire
	if err := p.sched.At(p.t, p.tick); err != nil {
		return fmt.Errorf("sim: scheduling request: %w", err)
	}
	return nil
}

// fire issues one arrival — draw the content (the k-th gen.Next call),
// issue the request, and reschedule for the next draw. Per-router
// arrivals are time-ordered, so the first nWarm requests of each router
// form the warmup phase; their completions are discarded.
func (p *arrivalProc) fire() {
	if *p.err != nil {
		return // the stream already failed; let the queue drain quietly
	}
	content := p.gen.Next()
	measured := p.k >= p.nWarm
	done := p.done
	if !measured {
		done = discard
	}
	var req int64
	var err error
	if p.ids == nil {
		req, err = p.pl.net.RequestID(p.router, content, done)
	} else {
		req = p.ids[p.k]
		err = p.pl.net.RequestWithID(p.router, content, req, done)
	}
	p.k++
	if err != nil {
		*p.err = fmt.Errorf("sim: issuing request at router %d: %w", p.router, err)
		return
	}
	// Anchor the request's span at its issue time. Warmup requests
	// still consume IDs but are deliberately unanchored: span
	// reconstruction treats ID groups without an issue event as
	// orphans, keeping measured-span counts aligned with Requests.
	if tr := p.pl.sc.Tracer; measured && tr != nil {
		tr.Emit(trace.Event{T: p.t, Kind: trace.KindIssue, Router: int(p.router), Content: int64(content), Req: req})
	}
	if p.k < p.nReq {
		p.t += p.rng.ExpFloat64() * p.pl.interArrival
		if err := p.sched.At(p.t, p.tick); err != nil {
			*p.err = fmt.Errorf("sim: scheduling request: %w", err)
		}
	}
}

// replayArrivals replays every process's arrival clock (a fresh copy of
// the stream the live process draws from) on a private engine holding
// nothing but the arrivals, and calls visit with each arrival's process
// and time in engine order. The replay schedules arrivals exactly as
// the live processes do — first arrivals in process order, each next
// one when its predecessor fires — so the engine's (at, seq) order is
// the serial run's arrival order, exact-time ties included.
func (pl *pipeline) replayArrivals(visit func(p *arrivalProc, t float64)) {
	var eng des.Engine
	for _, p := range pl.procs {
		rng, k, t := arrivalClock(pl.sc.Seed, int(p.router)), 0, 0.0
		var tick func()
		tick = func() {
			visit(p, t)
			if k++; k < p.nReq {
				t += rng.ExpFloat64() * pl.interArrival
				_ = eng.At(t, tick) // t >= now: the gap is non-negative
			}
		}
		t = rng.ExpFloat64() * pl.interArrival
		_ = eng.At(t, tick)
	}
	eng.Run()
}

// discard is the completion callback of every warmup request.
func discard(ccn.RequestResult) {}

// collector is the collect stage's accumulator: it folds measured
// completions, in completion order, into the run's metrics registry.
// The registry lets the manifest snapshot every aggregate at once;
// observe holds direct pointers, so the registry costs nothing per
// request.
type collector struct {
	reg        *metrics.Registry
	servedBy   *metrics.Counter
	latency    *metrics.Mean
	hist       *metrics.Histogram
	hops       *metrics.Mean
	peerHops   *metrics.Mean
	tierLat    [3]*metrics.Mean
	avail      metrics.Availability
	peerServes map[topology.NodeID]int64
	// reports holds per-router request counts under
	// Scenario.CollectReports; nil otherwise.
	reports  []map[catalog.ID]int64
	observer func(ccn.RequestResult)
	measured int
}

// newCollector registers the run's aggregates; maxRTT is the latency
// histogram's upper edge.
func newCollector(sc Scenario, maxRTT float64) (*collector, error) {
	reg := metrics.NewRegistry()
	c := &collector{
		reg:      reg,
		servedBy: reg.Counter("served_by"),
		latency:  reg.Mean("latency_ms"),
		hops:     reg.Mean("hops"),
		peerHops: reg.Mean("peer_hops"),
		tierLat: [3]*metrics.Mean{
			reg.Mean("tier_latency_local_ms"),
			reg.Mean("tier_latency_peer_ms"),
			reg.Mean("tier_latency_origin_ms"),
		},
		peerServes: make(map[topology.NodeID]int64),
		observer:   sc.Observer,
	}
	var err error
	if c.hist, err = reg.Histogram("latency_ms", 0, math.Max(maxRTT, 1), 2048); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if sc.CollectReports {
		c.reports = make([]map[catalog.ID]int64, sc.Topology.N())
		for i := range c.reports {
			c.reports[i] = make(map[catalog.ID]int64)
		}
	}
	return c, nil
}

// observe folds one measured completion into the aggregates.
func (c *collector) observe(result ccn.RequestResult) {
	c.measured++
	if c.observer != nil {
		c.observer(result)
	}
	c.servedBy.Inc(result.ServedBy.String())
	if result.Failed {
		c.avail.ObserveFailed()
		return
	}
	c.avail.ObserveOK()
	lat := result.Latency()
	c.latency.Observe(lat)
	c.hist.Observe(lat)
	c.hops.Observe(float64(result.Hops))
	c.tierLat[int(result.ServedBy)].Observe(lat)
	if result.ServedBy == ccn.ServedPeer {
		c.peerHops.Observe(float64(result.Hops))
		c.peerServes[result.Server]++
	}
	if c.reports != nil {
		c.reports[result.Router][result.Content]++
	}
}

// collect is the last stage. It fills every Result field both engines
// measure — from the collector and the data plane's counters — on top
// of the fields the drive stage already put in pl.res, and builds the
// manifest when the scenario asks for one. engine is the drive's gauge
// section; a serial run puts its shard fallback reason there.
func (pl *pipeline) collect(engine ManifestEngine) (Result, error) {
	c, net, res := pl.col, pl.net, pl.res
	if c.measured == 0 {
		return Result{}, fmt.Errorf("sim: no measured requests completed")
	}
	n := float64(c.measured)
	res.Requests = c.measured
	res.OriginLoad = float64(c.servedBy.Get("origin")) / n
	res.LocalHit = float64(c.servedBy.Get("local")) / n
	res.PeerHit = float64(c.servedBy.Get("peer")) / n
	res.MeanLatency = c.latency.Value()
	res.LatencyP50 = c.hist.Quantile(0.50)
	res.LatencyP95 = c.hist.Quantile(0.95)
	res.LatencyP99 = c.hist.Quantile(0.99)
	res.MeanHops = c.hops.Value()
	res.TierLatency = TierLatencies{
		Local:  c.tierLat[int(ccn.ServedLocal)].Value(),
		Peer:   c.tierLat[int(ccn.ServedPeer)].Value(),
		Origin: c.tierLat[int(ccn.ServedOrigin)].Value(),
	}
	res.PeerHops = c.peerHops.Value()
	if len(c.peerServes) > 0 {
		var total, worst int64
		for _, s := range c.peerServes {
			total += s
			worst = max(worst, s)
		}
		res.PeerLoadImbalance = float64(worst) / (float64(total) / float64(len(c.peerServes)))
	}
	res.InterestTransmissions = net.InterestTransmissions()
	res.DataTransmissions = net.DataTransmissions()
	res.DroppedInterests = net.DroppedInterests()
	res.DroppedData = net.DroppedData()
	res.Retransmissions = net.Retransmissions()
	res.MeanQueueingDelay = net.MeanQueueingDelay()
	res.QueuedPackets = net.QueuedPackets()
	res.FailedRequests = net.FailedRequests()
	res.Availability = c.avail.Value()
	res.FaultDrops = net.FaultDrops()
	res.ExpiredInterests = net.ExpiredInterests()
	res.RouteRecomputes = net.RouteRecomputes()
	if c.reports != nil {
		res.Reports = make([]coord.Report, len(pl.routers))
		for i, r := range pl.routers {
			res.Reports[i] = coord.Report{Router: r, Counts: c.reports[i]}
		}
	}
	if pl.sc.EmitManifest {
		res.Manifest = buildManifest(pl.sc, res, engine, net, c.reg, c.avail.Snapshot())
	}
	return res, nil
}
