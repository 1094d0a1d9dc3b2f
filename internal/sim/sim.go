// Package sim wires the substrates into runnable experiments: it builds a
// CCN data plane over a topology, provisions content stores according to
// a caching policy (non-coordinated, the paper's partitioned coordinated
// placement, or dynamic LRU/LFU baselines), drives Zipf request workloads
// through it, and measures what the analytical model predicts: origin
// load, per-tier hit ratios, mean latency, and mean hop count.
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
	"ccncoord/internal/timeline"
	"ccncoord/internal/topology"
	"ccncoord/internal/trace"
	"ccncoord/internal/workload"
)

// Policy selects how router storage is provisioned.
type Policy int

const (
	// PolicyNonCoordinated pins every router to the top-c contents, the
	// steady state of independent popularity-based caching (the paper's
	// non-coordinated strategy).
	PolicyNonCoordinated Policy = iota
	// PolicyCoordinated applies the paper's partitioned placement:
	// top c-x replicated locally everywhere, the next n*x ranks striped
	// across routers, with directory-based redirection.
	PolicyCoordinated
	// PolicyLRU runs dynamic LRU stores with leave-copy-everywhere
	// on-path caching and no coordination.
	PolicyLRU
	// PolicyLFU runs dynamic LFU stores with leave-copy-everywhere
	// on-path caching and no coordination.
	PolicyLFU
	// PolicySLRU runs dynamic segmented-LRU stores (scan resistant) with
	// leave-copy-everywhere on-path caching.
	PolicySLRU
	// PolicyTwoQ runs dynamic 2Q stores with leave-copy-everywhere
	// on-path caching.
	PolicyTwoQ
	// PolicyProbCache runs dynamic LRU stores with probabilistic on-path
	// caching (admission probability 0.3), the replica-thinning ICN
	// baseline.
	PolicyProbCache
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyNonCoordinated:
		return "non-coordinated"
	case PolicyCoordinated:
		return "coordinated"
	case PolicyLRU:
		return "lru"
	case PolicyLFU:
		return "lfu"
	case PolicySLRU:
		return "slru"
	case PolicyTwoQ:
		return "2q"
	case PolicyProbCache:
		return "probcache"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Assignment selects how coordinated contents are mapped to routers.
type Assignment int

const (
	// AssignStripe is the paper's placement: the coordinated rank band
	// dealt round-robin across routers, balancing popularity mass.
	AssignStripe Assignment = iota
	// AssignHash maps contents to routers by content-id hash (DHT
	// style); popularity balance then holds only in expectation.
	AssignHash
)

// String returns the assignment name.
func (a Assignment) String() string {
	switch a {
	case AssignStripe:
		return "stripe"
	case AssignHash:
		return "hash"
	default:
		return fmt.Sprintf("Assignment(%d)", int(a))
	}
}

// Scenario describes one simulation run.
type Scenario struct {
	Topology    *topology.Graph
	CatalogSize int64
	ZipfS       float64
	Capacity    int64 // c: slots per router
	Coordinated int64 // x: coordinated slots per router (PolicyCoordinated)
	Policy      Policy
	// Assignment selects the coordinated placement strategy
	// (PolicyCoordinated only); the zero value is the paper's striping.
	Assignment Assignment

	// Capacities optionally overrides Capacity per router
	// (heterogeneous networks, the paper's future work). When set, its
	// length must equal the topology size; Coordinated then denotes the
	// coordinated *fraction* numerator applied per router as
	// floor(Coordinated * c_i / Capacity), keeping the same global
	// split ratio.
	Capacities []int64

	// Placement, when non-nil, installs an externally computed
	// provisioning decision (e.g. from the coordination protocol's
	// estimated popularity) instead of deriving the ideal one from true
	// ranks. Requires PolicyCoordinated.
	Placement *coord.Placement

	// CollectReports records per-router request counts into
	// Result.Reports, the input the coordination protocol consumes.
	CollectReports bool

	Requests int // measured requests
	Warmup   int // unmeasured leading requests (cache warmup)
	Seed     int64

	AccessLatency float64 // one-way client <-> router, ms
	OriginLatency float64 // one-way router <-> origin uplink, ms
	// OriginGateway attaches the origin behind one router; when
	// negative, every router has a direct uplink (the model's uniform
	// d2 abstraction).
	OriginGateway topology.NodeID

	// MeanInterArrival is the per-router mean of the exponential
	// inter-arrival time (ms). Zero selects 1 ms.
	MeanInterArrival float64

	// LossRate is the per-transmission drop probability on network
	// links; zero means a lossless fabric. When positive, RetxTimeout
	// must be set (see internal/ccn).
	LossRate float64
	// RetxTimeout is the per-router interest retransmission timeout
	// (ms) on lossy fabrics.
	RetxTimeout float64

	// LinkRate is the per-link serialization capacity in contents per
	// millisecond; zero means infinite (no queueing). See internal/ccn.
	LinkRate float64

	// Routing selects the shortest-path backend the data plane forwards
	// with (see topology.PathProvider and ccn.Options.Routing). The
	// zero value, topology.BackendAuto, keeps the dense matrix below
	// topology.DenseAutoThreshold nodes — every calibrated-dataset run
	// stays byte-identical — and switches to the LRU tree cache on
	// larger generated graphs. Either backend belongs to Topology, so
	// every run on one graph shares its routing. Fault scenarios run on
	// any backend: the data plane reroutes around outages with a private
	// LRU tree cache.
	Routing topology.Backend

	// WorkloadFactory, when non-nil, supplies each router's request
	// generator instead of the default stationary Zipf(ZipfS) stream —
	// e.g. a workload.DriftingZipf for non-stationary demand. The
	// factory may capture state that persists across Run calls (the
	// adaptive loop exploits this to drift across epochs).
	WorkloadFactory func(router topology.NodeID) (workload.Generator, error)

	// Fault experiments. Faults are active when FaultScript is
	// non-empty or MTBF is positive; either requires RetxTimeout, since
	// the bounded-retry machinery is what keeps a faulty run live.

	// FaultScript is an explicit fault timeline for scripted
	// experiments (crash the stripe owner at t=500, recover at t=2000).
	FaultScript []fault.Event
	// MTBF and MTTR parameterize a stochastic router-failure process:
	// every router alternates exponentially distributed up-times (mean
	// MTBF, ms) and down-times (mean MTTR, ms). Both must be set
	// together.
	MTBF float64
	MTTR float64
	// FaultSeed drives the stochastic failure process; identical seeds
	// reproduce identical fault timelines. Zero selects 1.
	FaultSeed int64
	// HeartbeatInterval is the coordinator's failure-detector period
	// (ms); zero selects DefaultHeartbeatInterval. HeartbeatMisses is
	// the consecutive-miss threshold that declares a router dead; zero
	// selects DefaultHeartbeatMisses. The detector (and repair) runs
	// only for PolicyCoordinated under faults.
	HeartbeatInterval float64
	HeartbeatMisses   int

	// Chaos, when non-nil, runs a composed chaos scenario on top of the
	// run: coordinator outages, coordination-message loss, partitions,
	// correlated link failures, and an optional flash crowd (see
	// internal/fault). Chaos implies fault injection, so RetxTimeout
	// must be set. Scenarios with coordination failures (coordinator
	// outages or message loss) require PolicyCoordinated.
	Chaos *fault.ChaosScenario
	// StalenessBound is how long (ms) routers keep forwarding on stale
	// placements after the coordination channel goes down before
	// falling back to autonomous degraded mode; zero selects
	// DefaultStalenessBound. Outages shorter than the bound never
	// degrade the plane — placements merely go stale and refresh on
	// reconnect.
	StalenessBound float64
	// CheckpointPath, when non-empty, makes the coordinator save an
	// epoch-versioned checkpoint (placement, detector state) to this
	// path at each chaos coordinator crash and restore from it at the
	// restart — the crash/restart path that must be behaviorally
	// equivalent to an uninterrupted run. Requires a chaos scenario
	// with coordinator outages.
	CheckpointPath string

	// Observer, when non-nil, receives every measured request
	// completion in completion order — the hook determinism probes and
	// custom accounting use.
	Observer func(ccn.RequestResult)

	// Tracer, when non-nil, streams sampled structured events (packet
	// transmissions, drops, retries, faults, heartbeats, repairs,
	// request completions) as JSONL; see internal/trace. Tracing never
	// perturbs the simulation: the tracer draws from no simulation RNG
	// stream, so results are identical with tracing on or off.
	Tracer *trace.Tracer

	// EmitManifest populates Result.Manifest with the run's
	// observability manifest — per-router data-plane stats, the latency
	// histogram with underflow/overflow accounting, availability,
	// downtime, coordination message counts, and engine gauges — ready
	// to serialize next to experiment artifacts.
	EmitManifest bool

	// Shards selects how many event-loop shards drive the run: 1 forces
	// the serial engine, N > 1 requests a conservative parallel run over
	// a deterministic topology partition, and 0 (the default) picks
	// automatically — serial below topology.DenseAutoThreshold routers,
	// so every calibrated-dataset artifact keeps its exact bytes, and
	// min(8, GOMAXPROCS) shards above it. Whatever the setting, results
	// are identical to the serial engine's; scenario features that need
	// globally ordered shared state (faults, chaos, loss, finite link
	// rate, tracing, probabilistic caching, custom workload factories)
	// resolve to 1 shard, and an explicit Shards >= 2 downgraded this
	// way is surfaced: ResolveShardsReason reports it, and the run
	// manifest records it as engine.shard_fallback_reason. See
	// ResolveShards.
	Shards int

	// shardFallbackReason records why an explicit multi-shard request
	// fell back to the serial engine ("" when no fallback happened).
	// Run populates it from ResolveShardsReason — or from the sharded
	// path's degenerate-partition bailout — before dispatching to
	// runSerial, which copies it into the manifest's engine section.
	shardFallbackReason string

	// EngineTelemetry opts the run into the sharded engine's extended
	// telemetry: window accounting, per-shard busy/barrier-wait wall
	// time, and the cross-shard traffic matrix, recorded into the
	// manifest's engine section. Off (the default) leaves every
	// manifest byte-identical to earlier versions — the wall-clock
	// fields it adds are inherently nondeterministic (ccnbench -diff
	// ignores *_wall_ms leaves for exactly this reason).
	EngineTelemetry bool

	// Timeline, when non-nil, receives one coordination epoch record
	// per placement installation — measured protocol messages next to
	// the model's 2*n*x budget — and the run manifest carries the
	// ring's retained records in a "timeline" section. Nil (the
	// default) records nothing and changes no output bytes. The same
	// ring may be shared across runs (e.g. by AdaptiveRun's epochs) to
	// accumulate one continuous timeline.
	Timeline *timeline.Ring
}

// Failure-detector defaults (see Scenario.HeartbeatInterval).
const (
	DefaultHeartbeatInterval = 100.0
	DefaultHeartbeatMisses   = 3
)

// DefaultStalenessBound is how long (ms) routers trust stale placements
// after losing the coordination channel before degrading (see
// Scenario.StalenessBound).
const DefaultStalenessBound = 300.0

// faultsEnabled reports whether the scenario injects any faults.
func (s Scenario) faultsEnabled() bool {
	return len(s.FaultScript) > 0 || s.MTBF > 0 || s.Chaos != nil
}

// Validate checks the scenario parameters.
func (s Scenario) Validate() error {
	switch {
	case s.Topology == nil || s.Topology.N() < 2:
		return fmt.Errorf("sim: need a topology with at least 2 routers")
	case !s.Topology.Connected():
		return fmt.Errorf("sim: topology is not connected")
	case s.CatalogSize < 1:
		return fmt.Errorf("sim: catalog size %d < 1", s.CatalogSize)
	case !(s.ZipfS > 0):
		return fmt.Errorf("sim: Zipf exponent must be positive, got %v", s.ZipfS)
	case s.Capacity < 0:
		return fmt.Errorf("sim: negative capacity %d", s.Capacity)
	case s.Coordinated < 0 || s.Coordinated > s.Capacity:
		return fmt.Errorf("sim: coordinated slots %d outside [0, %d]", s.Coordinated, s.Capacity)
	case s.Capacities != nil && len(s.Capacities) != s.Topology.N():
		return fmt.Errorf("sim: %d per-router capacities for %d routers", len(s.Capacities), s.Topology.N())
	case s.Assignment != AssignStripe && s.Assignment != AssignHash:
		return fmt.Errorf("sim: unknown assignment strategy %d", s.Assignment)
	case s.Placement != nil && s.Policy != PolicyCoordinated:
		return fmt.Errorf("sim: external placement requires the coordinated policy")
	case s.Requests < 1:
		return fmt.Errorf("sim: need at least 1 measured request, got %d", s.Requests)
	case s.Warmup < 0:
		return fmt.Errorf("sim: negative warmup %d", s.Warmup)
	case s.AccessLatency < 0:
		return fmt.Errorf("sim: negative access latency %v", s.AccessLatency)
	case !(s.OriginLatency > 0):
		return fmt.Errorf("sim: origin latency must be positive, got %v", s.OriginLatency)
	case int(s.OriginGateway) >= s.Topology.N():
		return fmt.Errorf("sim: origin gateway %d outside topology", s.OriginGateway)
	case s.LossRate < 0 || s.LossRate >= 1:
		return fmt.Errorf("sim: loss rate %v outside [0, 1)", s.LossRate)
	case s.LossRate > 0 && !(s.RetxTimeout > 0):
		return fmt.Errorf("sim: lossy fabric requires a positive retransmission timeout")
	case s.LinkRate < 0:
		return fmt.Errorf("sim: negative link rate %v", s.LinkRate)
	case s.MTBF < 0:
		return fmt.Errorf("sim: negative MTBF %v", s.MTBF)
	case s.MTTR < 0:
		return fmt.Errorf("sim: negative MTTR %v", s.MTTR)
	case (s.MTBF > 0) != (s.MTTR > 0):
		return fmt.Errorf("sim: MTBF and MTTR must be set together")
	case s.faultsEnabled() && !(s.RetxTimeout > 0):
		return fmt.Errorf("sim: fault injection requires a positive retransmission timeout")
	case s.HeartbeatInterval < 0:
		return fmt.Errorf("sim: negative heartbeat interval %v", s.HeartbeatInterval)
	case s.HeartbeatMisses < 0:
		return fmt.Errorf("sim: negative heartbeat miss threshold %d", s.HeartbeatMisses)
	case s.StalenessBound < 0:
		return fmt.Errorf("sim: negative staleness bound %v", s.StalenessBound)
	case s.Shards < 0:
		return fmt.Errorf("sim: negative shard count %d", s.Shards)
	}
	if s.Chaos != nil {
		if _, err := s.Chaos.Compile(s.Topology); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if s.Chaos.HasCoordinationFailures() && s.Policy != PolicyCoordinated {
			return fmt.Errorf("sim: chaos coordination failures require the coordinated policy")
		}
		if s.Chaos.FlashCrowd != nil {
			if s.WorkloadFactory != nil {
				return fmt.Errorf("sim: chaos flash crowd conflicts with a custom workload factory")
			}
			if s.Chaos.FlashCrowd.Rank > s.CatalogSize {
				return fmt.Errorf("sim: chaos flash crowd rank %d exceeds catalog size %d", s.Chaos.FlashCrowd.Rank, s.CatalogSize)
			}
		}
	}
	if s.CheckpointPath != "" && (s.Chaos == nil || len(s.Chaos.Coordinator) == 0) {
		return fmt.Errorf("sim: checkpointing requires a chaos scenario with coordinator outages")
	}
	if s.faultsEnabled() {
		sched, err := fault.Scripted(s.FaultScript...)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		if err := sched.Validate(s.Topology.N()); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// Result aggregates the measured behavior of one run.
type Result struct {
	Policy   Policy
	Requests int

	OriginLoad float64 // fraction of requests served by the origin
	LocalHit   float64 // fraction served from the first-hop router
	PeerHit    float64 // fraction served by another router

	MeanLatency float64 // client-observed, ms
	MeanHops    float64 // network links between server and first-hop router

	// LatencyP50, LatencyP95 and LatencyP99 are client-latency quantile
	// estimates (ms) over the measured requests.
	LatencyP50 float64
	LatencyP95 float64
	LatencyP99 float64

	// TierLatency holds the measured mean latency per serving tier —
	// the empirical d0, d1, d2 of the analytical model. Entries are 0
	// when the tier served no requests.
	TierLatency TierLatencies

	// PeerHops is the mean hop count among peer-served requests only
	// (0 when there were none) — the distance cost of the coordinated
	// placement.
	PeerHops float64
	// PeerLoadImbalance is the max/mean ratio of per-router
	// peer-serving counts (1 = perfectly balanced, 0 when no peer
	// traffic); it quantifies how evenly an assignment spreads load.
	PeerLoadImbalance float64

	// Coordination cost, measured by the protocol (PolicyCoordinated
	// only): content-state messages exchanged to install the placement.
	CoordMessages    int64
	CoordConvergence float64

	InterestTransmissions int64
	DataTransmissions     int64

	// Loss-process activity (zero on lossless fabrics).
	DroppedInterests int64
	DroppedData      int64
	Retransmissions  int64

	// Link-queueing activity (zero on infinite-capacity fabrics).
	MeanQueueingDelay float64
	QueuedPackets     int64

	// Reports holds per-router request counts (measured requests only)
	// when Scenario.CollectReports is set; otherwise nil. It is the
	// input the coordination protocol consumes.
	Reports []coord.Report

	// Fault-experiment outcomes (zero when the scenario injects no
	// faults).

	// FailedRequests counts measured requests the network gave up on
	// after exhausting the retry budget; Availability is the fraction
	// of measured requests served (1 with no failures).
	FailedRequests int64
	Availability   float64
	// FaultDrops counts packets dropped at down links or crashed
	// routers; ExpiredInterests counts PIT entries that exhausted their
	// retry budget; RouteRecomputes counts forwarding-table rebuilds
	// after topology transitions.
	FaultDrops       int64
	ExpiredInterests int64
	RouteRecomputes  int64
	// RouterDowntime is the wall-clock time (ms) during which at least
	// one router was down (overlapping outages merged).
	RouterDowntime float64

	// Coordination failover cost and outcome (PolicyCoordinated under
	// faults): heartbeat traffic, repair traffic (W_repair: one
	// directive plus one transfer per moved content), the repair log,
	// and the mean crash-to-repair delay over repaired routers.
	HeartbeatMessages int64
	RepairMessages    int64
	Repairs           []RepairEvent
	MeanTimeToRepair  float64

	// Chaos outcomes (zero when the scenario runs no chaos).

	// CoordOutages is how many coordinator outage windows began;
	// CoordDowntime is their total duration (ms, clipped to the run).
	CoordOutages  int
	CoordDowntime float64
	// DegradedTime is the total time (ms) the data plane ran in
	// autonomous degraded mode; DegradedServes counts interests served
	// from degraded overlay stores; StalePlacementHits counts interests
	// forwarded on placements marked stale.
	DegradedTime       float64
	DegradedServes     int64
	StalePlacementHits int64
	// DegradedRequests counts measured requests completing while the
	// plane was degraded; DegradedOriginLoad is the origin-served
	// fraction among them (0 when there were none) — the hit-rate cost
	// of losing coordination.
	DegradedRequests   int64
	DegradedOriginLoad float64
	// ReconvergeMoves counts overlay entries flushed when degraded mode
	// exited (the re-convergence churn); MeanTimeToReconverge is the
	// mean time (ms) from a coordinator crash until the placement was
	// fully re-converged — the restart instant, or later when routers
	// crashed undetected during the outage and repair had to catch up.
	ReconvergeMoves      int64
	MeanTimeToReconverge float64

	// OutageOriginLoad and SteadyOriginLoad split the origin-served
	// fraction by whether any fault was active when the request
	// completed — the excess origin load an outage induces. Each is 0
	// when its window saw no completions.
	OutageOriginLoad float64
	SteadyOriginLoad float64

	// Manifest is the run's observability manifest, populated only when
	// Scenario.EmitManifest is set.
	Manifest *RunManifest
}

// RepairEvent records one failure detection and the repair pass it
// triggered.
type RepairEvent struct {
	Router     topology.NodeID // the router declared dead
	CrashedAt  float64         // when it actually went down
	DetectedAt float64         // when the detector declared it
	Moved      int             // contents reassigned onto survivors
	Messages   int64           // repair messages (directives + transfers)
}

// TierLatencies are the measured mean latencies of the three serving
// tiers (the model's d0, d1, d2).
type TierLatencies struct {
	Local  float64 // served by the first-hop router
	Peer   float64 // served by another router in the domain
	Origin float64 // served by the origin server
}

// Gamma returns the measured tiered latency ratio
// (d2-d1)/(d1-d0), or 0 if any tier lacks samples or the ordering
// degenerates.
func (t TierLatencies) Gamma() float64 {
	if t.Local <= 0 || t.Peer <= t.Local || t.Origin < t.Peer {
		return 0
	}
	return (t.Origin - t.Peer) / (t.Peer - t.Local)
}

// Run executes the scenario and returns the measured result. Scenarios
// resolving to more than one shard (see Scenario.Shards and
// ResolveShards) execute on the conservative parallel engine; everything
// else runs on the single-threaded engine. Either way the measured
// Result is identical — sharding changes wall-clock time, not outcomes.
func Run(sc Scenario) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	p, fallback := ResolveShardsReason(sc)
	if p > 1 {
		return runSharded(sc, p)
	}
	sc.shardFallbackReason = fallback
	return runSerial(sc)
}

// runSerial executes the (already validated) scenario on the
// single-threaded engine.
func runSerial(sc Scenario) (Result, error) {
	eng := &des.Engine{}
	cat, err := catalog.New(sc.CatalogSize, "/sim")
	if err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}

	// Expand the chaos scenario against the topology up front; Validate
	// already proved it compiles.
	var chaos *fault.CompiledChaos
	if sc.Chaos != nil {
		chaos, err = sc.Chaos.Compile(sc.Topology)
		if err != nil {
			return Result{}, fmt.Errorf("sim: %w", err)
		}
	}

	res := Result{Policy: sc.Policy}

	// Provision stores and optional directory according to the policy.
	routers := make([]topology.NodeID, sc.Topology.N())
	for i := range routers {
		routers[i] = topology.NodeID(i)
	}
	prov, err := provisionPolicy(sc, routers, &res)
	if err != nil {
		return Result{}, err
	}
	directory, coordAsg, localSet := prov.directory, prov.coordAsg, prov.localSet
	mode, stores, capOf := prov.mode, prov.stores, prov.capOf

	// Degraded-mode overlays: plain LRU stores of each router's full
	// capacity, built lazily only if the plane ever actually degrades.
	var degradedStores func(topology.NodeID) (cache.Store, error)
	if chaos != nil {
		degradedStores = func(r topology.NodeID) (cache.Store, error) {
			c := int(capOf(r))
			if c < 1 {
				c = 1
			}
			return cache.NewLRU(c)
		}
	}

	net, err := ccn.NewNetwork(eng, sc.Topology, cat, ccn.Options{
		AccessLatency:    sc.AccessLatency,
		Stores:           stores,
		Mode:             mode,
		Directory:        directory,
		DegradedStores:   degradedStores,
		LossRate:         sc.LossRate,
		RetxTimeout:      sc.RetxTimeout,
		LossSeed:         sc.Seed + 7,
		CacheProbability: probCacheAdmission,
		LinkRate:         sc.LinkRate,
		Faults:           sc.faultsEnabled(),
		Tracer:           sc.Tracer,
		Routing:          sc.Routing,
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

	// Per-router workloads and Poisson arrival processes. Arrivals are
	// scheduled lazily: one self-rescheduling event per router draws the
	// next inter-arrival gap and content when it fires, so the pending
	// event count stays O(routers + in-flight) instead of O(total
	// requests) — the request pre-materialization loop this replaces put
	// one heap closure per request on the event queue up front.
	interArrival := sc.MeanInterArrival
	if interArrival <= 0 {
		interArrival = 1
	}
	total := sc.Requests + sc.Warmup
	perRouter := total / len(routers)
	extra := total % len(routers)
	warmPerRouter := sc.Warmup / len(routers)
	warmExtra := sc.Warmup % len(routers)
	// reqsOf returns router i's request and warmup quota.
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

	// The run's scalar aggregates live in a named registry so the
	// manifest can snapshot them all at once; the hot path holds direct
	// pointers, so the registry costs nothing per request.
	reg := metrics.NewRegistry()
	latency := reg.Mean("latency_ms")
	hops := reg.Mean("hops")
	peerHops := reg.Mean("peer_hops")
	tierLat := [3]*metrics.Mean{
		reg.Mean("tier_latency_local_ms"),
		reg.Mean("tier_latency_peer_ms"),
		reg.Mean("tier_latency_origin_ms"),
	}
	// The histogram range covers the worst possible round trip — the
	// leading 2 converts the one-way sum (access latency + there-and-back
	// network diameter + origin uplink) to a round trip, and rttHeadroom
	// widens it for retransmission delays. Samples past the headroom
	// (deep retry backoff) land in the histogram's overflow counter and
	// saturate quantile estimates at the range edge instead of skewing
	// them. net.Routes() is the routing backend the network forwards
	// with (NewNetwork ran first): on the dense backend MaxDist reads
	// the same cached matrix as before, and on sparse backends it
	// avoids materializing an O(n²) matrix just for this scalar.
	maxRTT := 2 * (sc.AccessLatency + 2*net.Routes().MaxDist() + sc.OriginLatency) * rttHeadroom
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
	measured := 0

	// Fault accounting. inj is assigned after the arrival processes are
	// laid out (the stochastic horizon needs the last arrival time) but
	// before eng.Run, so the completion callbacks below may consult it.
	var inj *fault.Injector
	var avail metrics.Availability
	var downtime metrics.Downtime
	var outageOrigin, outageTotal, steadyOrigin, steadyTotal int64
	// chaosRT tracks the chaos scenario's coordination timeline; it is
	// installed with the fault machinery but consulted by the completion
	// callback, so it is declared here.
	var chaosRT *chaosRuntime

	// runErr records the first data-plane wiring failure hit inside a
	// scheduled callback; it stops the arrival streams and fails the run
	// instead of panicking out of the event loop.
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}

	// The completion callbacks are shared across all requests: warmup
	// completions are discarded wholesale, measured ones feed the
	// aggregators. Sharing them keeps the per-request allocation cost at
	// zero closures.
	warmCB := func(ccn.RequestResult) {}
	measuredCB := func(result ccn.RequestResult) {
		measured++
		if sc.Observer != nil {
			sc.Observer(result)
		}
		if sc.Tracer != nil {
			detail := ""
			if result.Failed {
				detail = "failed"
			}
			sc.Tracer.Emit(trace.Event{
				T:       result.CompletedAt,
				Kind:    trace.KindRequest,
				Router:  int(result.Router),
				Content: int64(result.Content),
				Hops:    result.Hops,
				Tier:    result.ServedBy.String(),
				Detail:  detail,
				Req:     result.Req,
			})
		}
		counts.Inc(result.ServedBy.String())
		if chaosRT != nil && net.Degraded() {
			chaosRT.degTotal++
			if result.ServedBy == ccn.ServedOrigin {
				chaosRT.degOrigin++
			}
		}
		if inj != nil {
			if inj.ActiveFaults() > 0 {
				outageTotal++
				if result.ServedBy == ccn.ServedOrigin {
					outageOrigin++
				}
			} else {
				steadyTotal++
				if result.ServedBy == ccn.ServedOrigin {
					steadyOrigin++
				}
			}
		}
		if result.Failed {
			avail.ObserveFailed()
			return
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

	// The default stationary workload shares one immutable Zipf
	// distribution across routers — the per-(s, N) sampler setup is paid
	// once, and per-router generators differ only in their RNG stream.
	var family *workload.ZipfFamily
	if sc.WorkloadFactory == nil {
		family, err = workload.NewZipfFamily(sc.ZipfS, sc.CatalogSize)
		if err != nil {
			return Result{}, fmt.Errorf("sim: %w", err)
		}
	}

	// issue fires one arrival of p: draw the content (the k-th gen.Next
	// call, exactly as the eager layout drew it), issue the request, and
	// reschedule the router's single arrival event for the next draw.
	// Per-router arrivals are time-ordered, so the first nWarm requests
	// of each router form the warmup phase.
	var issue func(p *arrivalProc)
	issue = func(p *arrivalProc) {
		if runErr != nil {
			return // the run already failed; let the queue drain quietly
		}
		id := p.gen.Next()
		measuredReq := p.k >= p.nWarm
		cb := measuredCB
		if !measuredReq {
			cb = warmCB
		}
		p.k++
		req, err := net.RequestID(p.router, id, cb)
		if err != nil {
			fail(fmt.Errorf("sim: issuing request at router %d: %w", p.router, err))
			return
		}
		// Anchor the request's span at its issue time. Warmup requests
		// still consume IDs but are deliberately unanchored: span
		// reconstruction treats ID groups without an issue event as
		// orphans, keeping measured-span counts aligned with Requests.
		if measuredReq && sc.Tracer != nil {
			sc.Tracer.Emit(trace.Event{T: eng.Now(), Kind: trace.KindIssue, Router: int(p.router), Content: int64(id), Req: req})
		}
		if p.k < p.nReq {
			p.t += p.rng.ExpFloat64() * interArrival
			if err := eng.At(p.t, p.tick); err != nil {
				fail(fmt.Errorf("sim: scheduling request: %w", err))
			}
		}
	}

	for i, r := range routers {
		var gen workload.Generator
		var err error
		if sc.WorkloadFactory != nil {
			gen, err = sc.WorkloadFactory(r)
		} else {
			gen, err = family.Gen(WorkloadSeed(sc.Seed, i))
		}
		if err != nil {
			return Result{}, fmt.Errorf("sim: workload for router %d: %w", r, err)
		}
		if gen == nil {
			return Result{}, fmt.Errorf("sim: nil workload generator for router %d", r)
		}
		if chaos != nil && chaos.FlashCrowd != nil {
			gen, err = workload.NewFlashCrowd(gen, chaos.FlashCrowd.AfterRequests, chaos.FlashCrowd.Rank, sc.CatalogSize)
			if err != nil {
				return Result{}, fmt.Errorf("sim: flash crowd for router %d: %w", r, err)
			}
		}
		nReq, nWarm := reqsOf(i)
		if nReq == 0 {
			continue
		}
		p := &arrivalProc{
			router: r,
			gen:    gen,
			rng:    rand.New(rand.NewSource(ArrivalSeed(sc.Seed, i))),
			nReq:   nReq,
			nWarm:  nWarm,
		}
		p.tick = func() { issue(p) }
		p.t = p.rng.ExpFloat64() * interArrival
		if err := eng.At(p.t, p.tick); err != nil {
			return Result{}, fmt.Errorf("sim: scheduling request: %w", err)
		}
	}

	// The stochastic fault horizon needs the time of the last arrival,
	// which lazy scheduling no longer materializes up front. Replay each
	// router's arrival clock on a scratch RNG seeded identically —
	// allocation-free and exact, and only paid on fault runs.
	maxArrival := 0.0
	if sc.faultsEnabled() {
		for i := range routers {
			nReq, _ := reqsOf(i)
			rng := rand.New(rand.NewSource(ArrivalSeed(sc.Seed, i)))
			t := 0.0
			for k := 0; k < nReq; k++ {
				t += rng.ExpFloat64() * interArrival
			}
			if t > maxArrival {
				maxArrival = t
			}
		}
	}

	// Install the fault timeline and, for the coordinated policy, the
	// coordinator's failure detector + repair pass.
	var det *coord.Detector
	var repairs []RepairEvent
	var repairMessages int64
	if sc.faultsEnabled() {
		horizon := math.Max(maxArrival, 1)
		events := append([]fault.Event(nil), sc.FaultScript...)
		if chaos != nil {
			events = append(events, chaos.Events...)
		}
		if sc.MTBF > 0 {
			st, err := fault.Stochastic(fault.StochasticConfig{
				MTBF:    sc.MTBF,
				MTTR:    sc.MTTR,
				Horizon: horizon,
				Seed:    sc.FaultSeed,
				Routers: routers,
			})
			if err != nil {
				return Result{}, fmt.Errorf("sim: %w", err)
			}
			events = append(events, st.Events()...)
		}
		sched, err := fault.Scripted(events...)
		if err != nil {
			return Result{}, fmt.Errorf("sim: %w", err)
		}
		if err := sched.Validate(len(routers)); err != nil {
			return Result{}, fmt.Errorf("sim: %w", err)
		}
		inj, err = fault.NewInjector(eng, sched, net)
		if err != nil {
			return Result{}, fmt.Errorf("sim: %w", err)
		}
		// Track merged router downtime; the injector applies redundant
		// events idempotently, so mirror its state transitions here.
		downNow := make(map[topology.NodeID]bool)
		inj.OnEvent = func(e fault.Event) {
			switch e.Kind {
			case fault.RouterDown:
				if !downNow[e.Node] {
					downNow[e.Node] = true
					downtime.Down(eng.Now())
				}
			case fault.RouterUp:
				if downNow[e.Node] {
					delete(downNow, e.Node)
					downtime.Up(eng.Now())
				}
			}
		}
		if err := inj.Install(); err != nil {
			return Result{}, fmt.Errorf("sim: %w", err)
		}

		if coordAsg != nil {
			hbInterval := sc.HeartbeatInterval
			if hbInterval == 0 {
				hbInterval = DefaultHeartbeatInterval
			}
			hbMisses := sc.HeartbeatMisses
			if hbMisses == 0 {
				hbMisses = DefaultHeartbeatMisses
			}
			det, err = coord.NewDetector(routers, hbInterval, hbMisses)
			if err != nil {
				return Result{}, fmt.Errorf("sim: %w", err)
			}
			det.Alive = inj.RouterAlive
			if sc.Tracer != nil {
				det.OnProbe = func(r topology.NodeID, at float64, alive bool) {
					var ok int64
					if alive {
						ok = 1
					}
					sc.Tracer.Emit(trace.Event{T: at, Kind: trace.KindHeartbeat, Router: int(r), N: ok})
				}
			}
			det.OnDown = func(dead topology.NodeID, at float64, survivors []topology.NodeID) {
				ev := RepairEvent{Router: dead, CrashedAt: at, DetectedAt: at}
				if t0, ok := inj.DownSince(dead); ok {
					ev.CrashedAt = t0
				}
				if len(survivors) > 0 {
					moved, err := coordAsg.Reassign(dead, survivors)
					if err != nil {
						fail(fmt.Errorf("sim: repairing assignment: %w", err))
						return
					}
					cost := coord.CostOfRepair(moved)
					ev.Moved = cost.Moved
					ev.Messages = cost.Total()
					repairMessages += cost.Total()
					// Install the repaired stripes so survivors actually
					// serve the contents they absorbed.
					for _, s := range survivors {
						st, err := net.Store(s)
						if err != nil {
							fail(fmt.Errorf("sim: repairing store %d: %w", s, err))
							return
						}
						part, ok := st.(*cache.Partitioned)
						if !ok {
							continue
						}
						repaired, err := cache.NewStatic(coordAsg.Contents(s))
						if err != nil {
							fail(fmt.Errorf("sim: repairing store %d: %w", s, err))
							return
						}
						part.Coordinated = repaired
					}
				}
				repairs = append(repairs, ev)
				if sc.Tracer != nil {
					sc.Tracer.Emit(trace.Event{T: at, Kind: trace.KindRepair, Router: int(dead), N: int64(ev.Moved)})
				}
			}
			if err := det.Start(eng, horizon); err != nil {
				return Result{}, fmt.Errorf("sim: %w", err)
			}
		}

		if chaos != nil {
			chaosRT, err = installChaos(chaosEnv{
				eng:      eng,
				net:      net,
				det:      det,
				inj:      inj,
				coordAsg: coordAsg,
				localSet: localSet,
				routers:  routers,
				sc:       sc,
				chaos:    chaos,
				fail:     fail,
			})
			if err != nil {
				return Result{}, err
			}
		}
	}

	eng.Run()

	if runErr != nil {
		return Result{}, runErr
	}
	if measured == 0 {
		return Result{}, fmt.Errorf("sim: no measured requests completed")
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
	if inj != nil {
		res.RouterDowntime = downtime.Total(eng.Now())
	}
	if det != nil {
		res.HeartbeatMessages = det.Heartbeats()
	}
	res.Repairs = repairs
	res.RepairMessages = repairMessages
	if len(repairs) > 0 {
		var sum float64
		for _, ev := range repairs {
			sum += ev.DetectedAt - ev.CrashedAt
		}
		res.MeanTimeToRepair = sum / float64(len(repairs))
	}
	if outageTotal > 0 {
		res.OutageOriginLoad = float64(outageOrigin) / float64(outageTotal)
	}
	if steadyTotal > 0 {
		res.SteadyOriginLoad = float64(steadyOrigin) / float64(steadyTotal)
	}
	if chaosRT != nil {
		chaosRT.finish(eng.Now(), net)
		res.CoordOutages = chaosRT.outages
		res.CoordDowntime = chaosRT.coordDowntime
		res.DegradedTime = chaosRT.degradedMs
		res.DegradedServes = net.DegradedServes()
		res.StalePlacementHits = net.StalePlacementHits()
		res.DegradedRequests = chaosRT.degTotal
		if chaosRT.degTotal > 0 {
			res.DegradedOriginLoad = float64(chaosRT.degOrigin) / float64(chaosRT.degTotal)
		}
		res.ReconvergeMoves = chaosRT.moves
		if chaosRT.ttrN > 0 {
			res.MeanTimeToReconverge = chaosRT.ttrSum / float64(chaosRT.ttrN)
		}
		// Chaos metrics enter the registry (and thus the manifest and
		// the Prometheus exposition) only on chaos runs, so non-chaos
		// manifests keep their exact prior byte layout.
		reg.Mean("degraded_seconds").Observe(res.DegradedTime / 1000)
		reg.Counter("stale_placement_hits").Add("total", res.StalePlacementHits)
		reg.Counter("reconverge_moves").Add("total", res.ReconvergeMoves)
	}
	if reportCounts != nil {
		res.Reports = make([]coord.Report, len(routers))
		for i, r := range routers {
			res.Reports[i] = coord.Report{Router: r, Counts: reportCounts[i]}
		}
	}
	if sc.EmitManifest {
		res.Manifest = buildManifest(sc, res, ManifestEngine{
			EventsProcessed:     eng.Processed(),
			PendingPeak:         eng.PendingPeak(),
			Shards:              1,
			ShardFallbackReason: sc.shardFallbackReason,
		}, net, reg, avail.Snapshot())
	}
	return res, nil
}

// arrivalProc is one router's self-rescheduling Poisson arrival process.
// Exactly one event per process is pending at any time; tick is the
// single closure the process reschedules, so steady-state arrival
// scheduling allocates nothing per request.
type arrivalProc struct {
	router topology.NodeID
	gen    workload.Generator
	rng    *rand.Rand // arrival clock; draws one ExpFloat64 per request
	tick   func()
	t      float64 // absolute time of the pending arrival
	k      int     // requests issued so far
	nReq   int     // total requests to issue
	nWarm  int     // leading unmeasured requests
}

// min64 returns the smaller of a and b.
func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// probCacheAdmission is the per-router admission probability used by
// PolicyProbCache.
const probCacheAdmission = 0.3

// rttHeadroom is the safety factor widening the latency histogram's
// range beyond the worst possible first-try round trip. Retransmission
// backoff on lossy or faulty fabrics can stretch a request past the
// geometric worst case; a factor of 2 keeps typical retry tails inside
// the histogram while anything deeper lands in the overflow counter
// (counted, and clamped to the range edge in quantile estimates) rather
// than stretching every bucket.
const rttHeadroom = 2
