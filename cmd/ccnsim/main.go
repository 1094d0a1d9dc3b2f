// Command ccnsim runs the packet-level CCN simulator on one of the
// embedded evaluation topologies and reports the measured origin load,
// per-tier hit ratios, latency, hop count, and coordination cost — side
// by side with the analytical model's prediction when the coordinated or
// non-coordinated provisioned policies are used.
//
// Examples:
//
//	ccnsim -topology US-A -policy coordinated -x 50
//	ccnsim -topology Abilene -policy lru -requests 100000 -warmup 50000
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"ccncoord/internal/fault"
	"ccncoord/internal/model"
	"ccncoord/internal/obs"
	"ccncoord/internal/prof"
	"ccncoord/internal/sim"
	"ccncoord/internal/timeline"
	"ccncoord/internal/topology"
	"ccncoord/internal/trace"
)

func main() {
	var (
		topoName    = flag.String("topology", "US-A", "topology: Abilene, CERNET, GEANT, or US-A")
		policy      = flag.String("policy", "coordinated", "provisioning policy: non-coordinated, coordinated, lru, lfu, slru, 2q, probcache")
		catalog     = flag.Int64("N", 20000, "catalog size (contents)")
		s           = flag.Float64("s", 0.8, "Zipf popularity exponent")
		capacity    = flag.Int64("c", 150, "per-router storage capacity")
		x           = flag.Int64("x", 75, "coordinated slots per router (coordinated policy)")
		requests    = flag.Int("requests", 60000, "measured requests")
		warmup      = flag.Int("warmup", 0, "warmup requests (dynamic policies)")
		seed        = flag.Int64("seed", 1, "workload seed")
		access      = flag.Float64("access", 5, "client access latency, ms one-way")
		origin      = flag.Float64("origin", 60, "origin uplink latency, ms one-way")
		gateway     = flag.Int("gateway", -1, "origin gateway router id; -1 for a uniform uplink at every router")
		adaptive    = flag.Int("adaptive", 0, "run the closed adaptive-provisioning loop for this many epochs instead of a single run")
		loss        = flag.Float64("loss", 0, "per-transmission drop probability on network links, [0,1)")
		retx        = flag.Float64("retx", 300, "interest retransmission timeout (ms) when -loss > 0 or faults are injected")
		mtbf        = flag.Float64("mtbf", 0, "mean time between router failures (ms); 0 disables stochastic faults (requires -mttr)")
		mttr        = flag.Float64("mttr", 0, "mean time to router recovery (ms) under -mtbf")
		faultSeed   = flag.Int64("faultseed", 1, "seed of the stochastic fault process")
		failSpec    = flag.String("fail", "", "scripted router crashes: router@start[-end],... (ms; omit end to crash forever)")
		chaosSpec   = flag.String("chaos", "", "chaos scenario: a JSON file path or a preset name (see -chaos list)")
		chaosCkpt   = flag.String("chaos-checkpoint", "", "save a coordinator checkpoint here at each chaos coordinator crash and restore it at the restart")
		staleness   = flag.Float64("staleness", 0, "staleness bound (ms) before a coordination outage degrades the data plane; 0 selects the default")
		shardsFlag  = flag.String("shards", "auto", "event-loop shards: auto (serial below 1024 routers), 1 (serial), or N; results are identical at any setting")
		httpAddr    = flag.String("http", "", "serve run progress, metrics and pprof on this address for the duration of the run")
		tracePath   = flag.String("trace", "", "write a JSONL event trace to this file (.gz compresses; see internal/trace)")
		traceSample = flag.Float64("trace-sample", 1, "trace sample rate in (0,1]: 0.01 keeps every 100th request lifecycle")
		manifest    = flag.String("manifest", "", "write the run's observability manifest (JSON) to this file")
		telemetry   = flag.Bool("telemetry", false, "collect the coordination timeline and per-shard engine stats: extra output rows, timeline/engine sections in -manifest, timeline series on -http /metrics")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write an allocation heap profile to this file")
	)
	flag.Parse()

	shards, err := parseShards(*shardsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccnsim:", err)
		os.Exit(1)
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccnsim:", err)
		os.Exit(1)
	}
	obsf := obsFlags{tracePath: *tracePath, traceSample: *traceSample, manifestPath: *manifest, telemetry: *telemetry}
	obsDone := func() error { return nil }
	var health *obs.Health
	if *httpAddr != "" {
		obsf.progress = obs.NewProgress()
		health = obs.NewHealth()
		addr, shutdown, serr := obs.Start(*httpAddr, obs.NewMux(obsf.progress, health))
		if serr != nil {
			fmt.Fprintln(os.Stderr, "ccnsim:", serr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ccnsim: serving metrics on http://%s/metrics\n", addr)
		health.Ready()
		obsDone = func() error {
			health.Draining("run complete")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			return shutdown(ctx)
		}
	}
	if *adaptive > 0 {
		if *manifest != "" {
			err = fmt.Errorf("-manifest applies to single runs, not -adaptive")
		} else {
			err = runAdaptive(*topoName, *catalog, *s, *capacity, *requests, *seed, *access, *origin, *gateway, *adaptive, obsf)
		}
	} else if *chaosSpec == "list" {
		for _, name := range fault.ChaosPresets() {
			fmt.Println(name)
		}
	} else {
		err = run(*topoName, *policy, *catalog, *s, *capacity, *x, *requests, *warmup, *seed, *access, *origin, *gateway, *loss, *retx,
			*mtbf, *mttr, *faultSeed, *failSpec, chaosOpts{spec: *chaosSpec, checkpoint: *chaosCkpt, staleness: *staleness}, shards, obsf)
	}
	if err == nil {
		err = stopProf()
	}
	if err == nil {
		err = obsDone()
	}
	if err != nil {
		if health != nil {
			health.Fail(err.Error())
		}
		fmt.Fprintln(os.Stderr, "ccnsim:", err)
		os.Exit(1)
	}
}

// obsFlags carries the observability options shared by the run modes.
type obsFlags struct {
	tracePath    string
	traceSample  float64
	manifestPath string
	telemetry    bool          // -telemetry: timeline ring + engine stats
	progress     *obs.Progress // nil unless -http is serving
}

// openTimeline builds the coordination-timeline ring when -telemetry is
// on (nil otherwise) and attaches it to the live /metrics exporter when
// one is serving.
func (o obsFlags) openTimeline() *timeline.Ring {
	if !o.telemetry {
		return nil
	}
	ring := timeline.NewRing(256)
	if o.progress != nil {
		o.progress.AttachTimeline(ring)
	}
	return ring
}

// openTracer builds the tracer from the flags, or returns nils when
// tracing is off. done flushes and closes the trace file (and its gzip
// layer for .gz paths).
func (o obsFlags) openTracer() (tr *trace.Tracer, done func() error, err error) {
	if o.tracePath == "" {
		return nil, func() error { return nil }, nil
	}
	return trace.OpenFile(o.tracePath, o.traceSample)
}

// simStarted ticks the live progress tracker, if serving.
func (o obsFlags) simStarted() {
	if o.progress != nil {
		o.progress.SimStarted()
	}
}

// simFinished ticks the live progress tracker and publishes the run's
// metrics snapshot for /metrics, if serving.
func (o obsFlags) simFinished(res *sim.Result) {
	if o.progress == nil {
		return
	}
	o.progress.SimFinished(int64(res.Requests))
	if res.Manifest != nil {
		snap := res.Manifest.Metrics
		o.progress.Publish(&snap)
	}
}

// writeManifest serializes the run manifest to the flagged path.
func (o obsFlags) writeManifest(m *sim.RunManifest) error {
	if o.manifestPath == "" {
		return nil
	}
	if m == nil {
		return fmt.Errorf("run produced no manifest")
	}
	f, err := os.Create(o.manifestPath)
	if err != nil {
		return fmt.Errorf("creating manifest file: %w", err)
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAdaptive drives the closed adaptive loop and prints one row per
// epoch.
func runAdaptive(topoName string, catalog int64, s float64, capacity int64,
	requests int, seed int64, access, origin float64, gateway, epochs int, obs obsFlags) error {
	g, err := findTopology(topoName)
	if err != nil {
		return err
	}
	tr, traceDone, err := obs.openTracer()
	if err != nil {
		return err
	}
	sc := sim.Scenario{
		Topology:      g,
		CatalogSize:   catalog,
		ZipfS:         s,
		Capacity:      capacity,
		Requests:      requests,
		Seed:          seed,
		AccessLatency: access,
		OriginLatency: origin,
		OriginGateway: topology.NodeID(gateway),
		Tracer:        tr,
	}
	base := model.Config{
		S: 0.5, // prior; the loop learns the real exponent
		N: float64(catalog), C: float64(capacity), Routers: g.N(),
		Lat:      model.LatencyFromGamma(1, 2.2842, 5),
		UnitCost: 26.7, Alpha: 0.95,
	}
	ring := obs.openTimeline()
	sc.Timeline = ring
	obs.simStarted()
	records, err := sim.AdaptiveRun(sc, base, epochs)
	if err != nil {
		return err
	}
	if obs.progress != nil {
		var reqs int64
		for _, e := range records {
			reqs += int64(e.Result.Requests)
		}
		obs.progress.SimFinished(reqs)
	}
	// With -telemetry the table gains the model's message budget and the
	// placement churn per epoch; without it, stdout is byte-identical to
	// earlier releases.
	var tl []timeline.EpochRecord
	if ring != nil {
		tl = ring.Snapshot().Records
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	hdr := "epoch\tpolicy\testimated s\tlevel l*\torigin load\tcoord msgs"
	if ring != nil {
		hdr += "\tinstall msgs / bound\tchurn"
	}
	fmt.Fprintln(tw, hdr)
	for i, e := range records {
		fmt.Fprintf(tw, "%d\t%s\t%.3f\t%.3f\t%.4f\t%d",
			e.Epoch, e.Result.Policy, e.EstimatedS, e.Level,
			e.Result.OriginLoad, e.Result.CoordMessages)
		if i < len(tl) {
			fmt.Fprintf(tw, "\t%d / %d\t%d", tl[i].Messages, tl[i].BoundMessages, tl[i].Churn)
		} else if ring != nil {
			fmt.Fprint(tw, "\t\t")
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return traceDone()
}

// findTopology resolves an embedded dataset by name.
func findTopology(name string) (*topology.Graph, error) {
	for _, cand := range topology.All() {
		if cand.Name() == name {
			return cand, nil
		}
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

// parseFailSpec parses the -fail flag: a comma-separated list of
// scripted router crashes, each "router@start" (crash forever) or
// "router@start-end" (crash at start, recover at end), times in ms.
func parseFailSpec(spec string, n int) ([]fault.Event, error) {
	if spec == "" {
		return nil, nil
	}
	var events []fault.Event
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		at := strings.SplitN(part, "@", 2)
		if len(at) != 2 {
			return nil, fmt.Errorf("fail spec %q: want router@start[-end]", part)
		}
		router, err := strconv.Atoi(at[0])
		if err != nil {
			return nil, fmt.Errorf("fail spec %q: bad router id: %v", part, err)
		}
		if router < 0 || router >= n {
			return nil, fmt.Errorf("fail spec %q: unknown router %d (topology has %d)", part, router, n)
		}
		window := strings.SplitN(at[1], "-", 2)
		start, err := strconv.ParseFloat(window[0], 64)
		if err != nil {
			return nil, fmt.Errorf("fail spec %q: bad start time: %v", part, err)
		}
		if math.IsNaN(start) || math.IsInf(start, 0) {
			return nil, fmt.Errorf("fail spec %q: start time %v is not finite", part, start)
		}
		if start < 0 {
			return nil, fmt.Errorf("fail spec %q: negative start time %v", part, start)
		}
		events = append(events, fault.Event{At: start, Kind: fault.RouterDown, Node: topology.NodeID(router)})
		if len(window) == 2 {
			end, err := strconv.ParseFloat(window[1], 64)
			if err != nil {
				return nil, fmt.Errorf("fail spec %q: bad end time: %v", part, err)
			}
			if math.IsNaN(end) || math.IsInf(end, 0) {
				return nil, fmt.Errorf("fail spec %q: end time %v is not finite", part, end)
			}
			if end <= start {
				return nil, fmt.Errorf("fail spec %q: end %v not after start %v", part, end, start)
			}
			events = append(events, fault.Event{At: end, Kind: fault.RouterUp, Node: topology.NodeID(router)})
		}
	}
	return events, nil
}

// chaosOpts carries the chaos-scenario flags.
type chaosOpts struct {
	spec       string  // -chaos: file path or preset name ("" = off)
	checkpoint string  // -chaos-checkpoint
	staleness  float64 // -staleness
}

// load resolves the -chaos flag: an existing file is parsed as a
// scenario document, anything else is looked up as a preset name.
func (c chaosOpts) load() (*fault.ChaosScenario, error) {
	if c.spec == "" {
		return nil, nil
	}
	if _, err := os.Stat(c.spec); err == nil {
		return fault.LoadChaosFile(c.spec)
	}
	return fault.ChaosPreset(c.spec)
}

func run(topoName, policy string, catalog int64, s float64, capacity, x int64,
	requests, warmup int, seed int64, access, origin float64, gateway int, loss, retx float64,
	mtbf, mttr float64, faultSeed int64, failSpec string, chaosf chaosOpts, shards int, obs obsFlags) error {
	g, err := findTopology(topoName)
	if err != nil {
		return err
	}
	pol, err := parsePolicy(policy)
	if err != nil {
		return err
	}
	chaos, err := chaosf.load()
	if err != nil {
		return err
	}
	if chaos == nil && (chaosf.checkpoint != "" || chaosf.staleness != 0) {
		return fmt.Errorf("-chaos-checkpoint and -staleness require -chaos")
	}
	switch {
	case !(mtbf >= 0) || math.IsInf(mtbf, 1):
		return fmt.Errorf("-mtbf must be finite and non-negative, got %v", mtbf)
	case !(mttr >= 0) || math.IsInf(mttr, 1):
		return fmt.Errorf("-mttr must be finite and non-negative, got %v", mttr)
	case (mtbf > 0) != (mttr > 0):
		return fmt.Errorf("-mtbf and -mttr must be set together")
	}
	script, err := parseFailSpec(failSpec, g.N())
	if err != nil {
		return err
	}
	faultsOn := mtbf > 0 || len(script) > 0 || chaos != nil
	tr, traceDone, err := obs.openTracer()
	if err != nil {
		return err
	}
	sc := sim.Scenario{
		Topology:       g,
		CatalogSize:    catalog,
		ZipfS:          s,
		Capacity:       capacity,
		Coordinated:    x,
		Policy:         pol,
		Requests:       requests,
		Warmup:         warmup,
		Seed:           seed,
		AccessLatency:  access,
		OriginLatency:  origin,
		OriginGateway:  topology.NodeID(gateway),
		LossRate:       loss,
		FaultScript:    script,
		MTBF:           mtbf,
		MTTR:           mttr,
		FaultSeed:      faultSeed,
		Chaos:          chaos,
		StalenessBound: chaosf.staleness,
		CheckpointPath: chaosf.checkpoint,
		Tracer:         tr,
		EmitManifest:   obs.manifestPath != "" || obs.progress != nil || obs.telemetry,
		Shards:         shards,
	}
	ring := obs.openTimeline()
	if ring != nil {
		sc.Timeline = ring
		sc.EngineTelemetry = true
	}
	if loss > 0 || faultsOn {
		sc.RetxTimeout = retx
	}
	if pol != sim.PolicyCoordinated {
		sc.Coordinated = 0
	}
	// The shard count goes to stderr only, so stdout stays byte-identical
	// across shard settings (sharding never changes results). An explicit
	// -shards N the scenario cannot honor is loudly downgraded — the
	// serial fallback is correct but the operator asked for parallelism
	// they are not getting.
	if n, reason := sim.ResolveShardsReason(sc); n > 1 {
		fmt.Fprintf(os.Stderr, "ccnsim: running on %d event-loop shards\n", n)
	} else if reason != "" {
		fmt.Fprintf(os.Stderr, "ccnsim: warning: -shards %d falls back to the serial engine (%s)\n", sc.Shards, reason)
	}
	obs.simStarted()
	res, err := sim.Run(sc)
	if err != nil {
		return err
	}
	obs.simFinished(&res)
	if err := traceDone(); err != nil {
		return err
	}
	if err := obs.writeManifest(res.Manifest); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "topology\t%s (n=%d)\n", g.Name(), g.N())
	fmt.Fprintf(tw, "policy\t%s\n", res.Policy)
	fmt.Fprintf(tw, "measured requests\t%d\n", res.Requests)
	fmt.Fprintf(tw, "origin load\t%.4f\n", res.OriginLoad)
	fmt.Fprintf(tw, "local hit ratio\t%.4f\n", res.LocalHit)
	fmt.Fprintf(tw, "peer hit ratio\t%.4f\n", res.PeerHit)
	fmt.Fprintf(tw, "mean latency (ms)\t%.2f\n", res.MeanLatency)
	fmt.Fprintf(tw, "mean hop count\t%.3f\n", res.MeanHops)
	fmt.Fprintf(tw, "interest/data transmissions\t%d / %d\n",
		res.InterestTransmissions, res.DataTransmissions)
	if loss > 0 {
		fmt.Fprintf(tw, "drops (interest/data)\t%d / %d\n", res.DroppedInterests, res.DroppedData)
		fmt.Fprintf(tw, "retransmissions\t%d\n", res.Retransmissions)
		fmt.Fprintf(tw, "latency p50/p95/p99 (ms)\t%.1f / %.1f / %.1f\n", res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
	if pol == sim.PolicyCoordinated {
		fmt.Fprintf(tw, "coordination messages\t%d\n", res.CoordMessages)
		fmt.Fprintf(tw, "coordination convergence (ms)\t%.1f\n", res.CoordConvergence)
	}
	if faultsOn {
		fmt.Fprintf(tw, "availability\t%.4f (%d failed)\n", res.Availability, res.FailedRequests)
		fmt.Fprintf(tw, "fault drops / expired interests\t%d / %d\n", res.FaultDrops, res.ExpiredInterests)
		fmt.Fprintf(tw, "route recomputes\t%d\n", res.RouteRecomputes)
		fmt.Fprintf(tw, "router downtime (ms)\t%.1f\n", res.RouterDowntime)
		fmt.Fprintf(tw, "origin load outage / steady\t%.4f / %.4f\n", res.OutageOriginLoad, res.SteadyOriginLoad)
		if pol == sim.PolicyCoordinated {
			fmt.Fprintf(tw, "heartbeat / repair messages\t%d / %d\n", res.HeartbeatMessages, res.RepairMessages)
			fmt.Fprintf(tw, "mean time to repair (ms)\t%.1f\n", res.MeanTimeToRepair)
			for _, rep := range res.Repairs {
				fmt.Fprintf(tw, "repair\trouter %d crashed %.1f detected %.1f moved %d contents\n",
					rep.Router, rep.CrashedAt, rep.DetectedAt, rep.Moved)
			}
		}
	}
	if chaos != nil {
		fmt.Fprintf(tw, "chaos scenario\t%s\n", chaos.Name)
		fmt.Fprintf(tw, "coordinator outages / downtime (ms)\t%d / %.1f\n", res.CoordOutages, res.CoordDowntime)
		fmt.Fprintf(tw, "degraded time (ms)\t%.1f\n", res.DegradedTime)
		fmt.Fprintf(tw, "degraded requests / overlay serves\t%d / %d\n", res.DegradedRequests, res.DegradedServes)
		if res.DegradedRequests > 0 {
			fmt.Fprintf(tw, "origin load while degraded\t%.4f\n", res.DegradedOriginLoad)
		}
		fmt.Fprintf(tw, "stale-placement forwards\t%d\n", res.StalePlacementHits)
		fmt.Fprintf(tw, "reconverge moves / mean TTR (ms)\t%d / %.1f\n", res.ReconvergeMoves, res.MeanTimeToReconverge)
	}
	if ring != nil {
		for _, rec := range ring.Snapshot().Records {
			fmt.Fprintf(tw, "timeline epoch %d\t%d msgs (bound %d), churn %d, level %.3f\n",
				rec.Epoch, rec.Messages, rec.BoundMessages, rec.Churn, rec.Level)
		}
		if res.Manifest != nil && res.Manifest.Engine.Shards > 1 {
			eng := res.Manifest.Engine
			fmt.Fprintf(tw, "engine\t%d shards, %d windows, %d cross-shard events\n",
				eng.Shards, eng.Windows, eng.CrossShardEvents)
		}
	}

	// Analytical prediction for the provisioned policies.
	if pol == sim.PolicyCoordinated || pol == sim.PolicyNonCoordinated {
		cfg := model.Config{
			S: s, N: float64(catalog), C: float64(capacity), Routers: g.N(),
			Lat: model.Latency{D0: 1, D1: 2, D2: 3}, Alpha: 1,
		}
		d, err := model.NewDiscrete(cfg)
		if err != nil {
			return err
		}
		xs := sc.Coordinated
		local, peer, originLoad := d.HitRatios(xs)
		fmt.Fprintf(tw, "model origin load\t%.4f\n", originLoad)
		fmt.Fprintf(tw, "model local/peer (rank bands)\t%.4f / %.4f\n", local, peer)
	}
	return tw.Flush()
}

// parseShards parses a -shards flag value: "auto" (0 — the scenario's
// auto rule decides) or an explicit positive shard count.
func parseShards(s string) (int, error) {
	if s == "auto" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf(`-shards must be "auto" or a positive integer, got %q`, s)
	}
	return n, nil
}

func parsePolicy(s string) (sim.Policy, error) {
	switch s {
	case "non-coordinated", "noncoordinated", "nc":
		return sim.PolicyNonCoordinated, nil
	case "coordinated", "coord":
		return sim.PolicyCoordinated, nil
	case "lru":
		return sim.PolicyLRU, nil
	case "lfu":
		return sim.PolicyLFU, nil
	case "slru":
		return sim.PolicySLRU, nil
	case "2q", "twoq":
		return sim.PolicyTwoQ, nil
	case "probcache", "prob":
		return sim.PolicyProbCache, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}
