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
	// inter-arrival time (ms). Zero selects 1 ms; it must be finite and
	// non-negative.
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

// netOptions is the data plane's configuration under the scenario,
// before provisioning supplies stores, directory and degraded overlays.
func (s Scenario) netOptions() ccn.Options {
	return ccn.Options{
		AccessLatency:    s.AccessLatency,
		Mode:             s.Policy.cachingMode(),
		LossRate:         s.LossRate,
		RetxTimeout:      s.RetxTimeout,
		LossSeed:         s.Seed + 7,
		CacheProbability: probCacheAdmission,
		LinkRate:         s.LinkRate,
		Faults:           s.faultsEnabled(),
		Tracer:           s.Tracer,
	}
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

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
	case !finite(s.AccessLatency) || s.AccessLatency < 0:
		return fmt.Errorf("sim: access latency must be finite and non-negative, got %v", s.AccessLatency)
	case !finite(s.OriginLatency) || !(s.OriginLatency > 0):
		return fmt.Errorf("sim: origin latency must be finite and positive, got %v", s.OriginLatency)
	case !finite(s.MeanInterArrival) || s.MeanInterArrival < 0:
		return fmt.Errorf("sim: mean inter-arrival must be finite and non-negative, got %v", s.MeanInterArrival)
	case int(s.OriginGateway) >= s.Topology.N():
		return fmt.Errorf("sim: origin gateway %d outside topology", s.OriginGateway)
	case !(s.LossRate >= 0 && s.LossRate < 1):
		return fmt.Errorf("sim: loss rate %v outside [0, 1)", s.LossRate)
	case s.LossRate > 0 && !(s.RetxTimeout > 0):
		return fmt.Errorf("sim: lossy fabric requires a positive retransmission timeout")
	case !finite(s.LinkRate) || s.LinkRate < 0:
		return fmt.Errorf("sim: link rate must be finite and non-negative, got %v", s.LinkRate)
	case !finite(s.MTBF) || s.MTBF < 0:
		return fmt.Errorf("sim: MTBF must be finite and non-negative, got %v", s.MTBF)
	case !finite(s.MTTR) || s.MTTR < 0:
		return fmt.Errorf("sim: MTTR must be finite and non-negative, got %v", s.MTTR)
	case (s.MTBF > 0) != (s.MTTR > 0):
		return fmt.Errorf("sim: MTBF and MTTR must be set together")
	case s.faultsEnabled() && !(s.RetxTimeout > 0):
		return fmt.Errorf("sim: fault injection requires a positive retransmission timeout")
	case !finite(s.HeartbeatInterval) || s.HeartbeatInterval < 0:
		return fmt.Errorf("sim: heartbeat interval must be finite and non-negative, got %v", s.HeartbeatInterval)
	case s.HeartbeatMisses < 0:
		return fmt.Errorf("sim: negative heartbeat miss threshold %d", s.HeartbeatMisses)
	case !finite(s.StalenessBound) || s.StalenessBound < 0:
		return fmt.Errorf("sim: staleness bound must be finite and non-negative, got %v", s.StalenessBound)
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
		part, err := topology.PartitionGraph(sc.Topology, p)
		if err != nil {
			return Result{}, fmt.Errorf("sim: partitioning topology: %w", err)
		}
		if part.Parts >= 2 && part.CutLatency > 0 {
			return runSharded(sc, part)
		}
		// A zero-latency cut edge leaves no lookahead to run ahead on;
		// run serially rather than degenerate into lock-step windows.
		// Record the downgrade when the caller asked for shards
		// explicitly, so the manifest does not read as a sharded run that
		// never happened.
		if sc.Shards >= 2 {
			fallback = "degenerate partition: no positive-latency cut edge for lookahead"
		}
	}
	return runSerial(sc, fallback)
}

// runSerial is the drive stage on the single-threaded engine. Around the
// shared pipeline it owns what only a serial run can hold: the fault
// timeline, the failure detector and its repairs, the chaos coordination
// timeline, and the trace stream. Completions are observed live.
// fallback is why an explicit multi-shard request runs here ("" when
// none was made).
func runSerial(sc Scenario, fallback string) (Result, error) {
	eng := &des.Engine{}
	pl, err := build(sc, func(cat *catalog.Catalog, opts ccn.Options) (*ccn.Network, error) {
		return ccn.NewNetwork(eng, sc.Topology, cat, opts)
	})
	if err != nil {
		return Result{}, err
	}
	net, res, routers := pl.net, &pl.res, pl.routers
	coordAsg := pl.prov.coordAsg

	// runErr records the first data-plane wiring failure hit inside a
	// scheduled callback; it stops the arrival streams and fails the run
	// instead of panicking out of the event loop.
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}

	// Fault accounting. inj and chaosRT are assigned after the arrival
	// processes start but before eng.Run, so the completion callback may
	// consult them.
	var inj *fault.Injector
	var downtime metrics.Downtime
	var outageOrigin, outageTotal, steadyOrigin, steadyTotal int64
	var chaosRT *chaosRuntime

	// One completion callback serves every measured request, keeping the
	// per-request allocation cost at zero closures.
	measuredCB := func(result ccn.RequestResult) {
		pl.col.observe(result)
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
		origin := int64(0)
		if result.ServedBy == ccn.ServedOrigin {
			origin = 1
		}
		if chaosRT != nil && net.Degraded() {
			chaosRT.degTotal++
			chaosRT.degOrigin += origin
		}
		if inj != nil {
			if inj.ActiveFaults() > 0 {
				outageTotal++
				outageOrigin += origin
			} else {
				steadyTotal++
				steadyOrigin += origin
			}
		}
	}
	for _, p := range pl.procs {
		p.sched, p.done, p.err = eng, measuredCB, &runErr
		if err := p.start(); err != nil {
			return Result{}, err
		}
	}

	// Install the fault timeline and, for the coordinated policy, the
	// coordinator's failure detector + repair pass.
	var det *coord.Detector
	if sc.faultsEnabled() {
		horizon := pl.faultHorizon()
		events := append([]fault.Event(nil), sc.FaultScript...)
		if pl.chaos != nil {
			events = append(events, pl.chaos.Events...)
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
					res.RepairMessages += cost.Total()
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
				res.Repairs = append(res.Repairs, ev)
				if sc.Tracer != nil {
					sc.Tracer.Emit(trace.Event{T: at, Kind: trace.KindRepair, Router: int(dead), N: int64(ev.Moved)})
				}
			}
			if err := det.Start(eng, horizon); err != nil {
				return Result{}, fmt.Errorf("sim: %w", err)
			}
		}

		if pl.chaos != nil {
			chaosRT, err = installChaos(chaosEnv{pipeline: pl, eng: eng, det: det, inj: inj, fail: fail})
			if err != nil {
				return Result{}, err
			}
		}
	}

	eng.Run()

	if runErr != nil {
		return Result{}, runErr
	}
	if inj != nil {
		res.RouterDowntime = downtime.Total(eng.Now())
	}
	if det != nil {
		res.HeartbeatMessages = det.Heartbeats()
	}
	if len(res.Repairs) > 0 {
		var sum float64
		for _, ev := range res.Repairs {
			sum += ev.DetectedAt - ev.CrashedAt
		}
		res.MeanTimeToRepair = sum / float64(len(res.Repairs))
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
		reg := pl.col.reg
		reg.Mean("degraded_seconds").Observe(res.DegradedTime / 1000)
		reg.Counter("stale_placement_hits").Add("total", res.StalePlacementHits)
		reg.Counter("reconverge_moves").Add("total", res.ReconvergeMoves)
	}
	return pl.collect(ManifestEngine{
		EventsProcessed:     eng.Processed(),
		PendingPeak:         eng.PendingPeak(),
		Shards:              1,
		ShardFallbackReason: fallback,
	})
}

// faultHorizon is the horizon of the stochastic fault process and the
// failure detector: the time of the last arrival, at least 1. Lazy
// scheduling does not materialize it up front, so it replays the
// arrival clocks: exact, and paid only on fault runs.
func (pl *pipeline) faultHorizon() float64 {
	horizon := 1.0
	pl.replayArrivals(func(_ *arrivalProc, t float64) { horizon = max(1, t) })
	return horizon
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
