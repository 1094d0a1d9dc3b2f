package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ccncoord/internal/daemon"
	"ccncoord/internal/sim"
	"ccncoord/internal/timeline"
	"ccncoord/internal/topology"
	"ccncoord/internal/trace"
)

// surface is what the traced run learned by running the workload's own
// surface once: the exact per-request counts that weight each layer's unit
// cost, and the wall-clock numbers the attribution has to explain.
type surface struct {
	catalogN     int64
	zipfS        float64
	capacity     int64
	coordinated  int64
	graph        *topology.Graph
	writesStores bool // on-path caching: every data hop is an LRU lookup+insert

	eventsPerReq, pendingPeak          float64
	shards, crossFrac, barrierWaitFrac float64
	windows, shardSpeedup              float64
	txPerReq, interestTxPerReq         float64
	lookupsPerReq                      float64
	localHit, peerHit, originLoadErr   float64
	driveNs, setupShare, overheadFrac  float64
}

// attribution is the table a traced run writes beside its spans: each
// layer's unit cost times its exact per-request count, summing with the
// unattributed rest to the drive time per request.
type attribution struct {
	DriveNsPerReq float64            `json:"drive_ns_per_req"`
	Terms         map[string]float64 `json:"terms_ns_per_req"`
	Unattributed  float64            `json:"unattributed_ns_per_req"`
}

// tracedSim runs a sim workload's scenario plainly, with the engine's and
// manifest's telemetry on, and on one shard, each under a span.
func tracedSim(w workload, cfg config, rec *recorder, rep *report) (*surface, error) {
	spec := w.sim
	setup, err := timeSetup(w, cfg)
	if err != nil {
		return nil, err
	}
	g, err := spec.graph()
	if err != nil {
		return nil, err
	}
	sc := spec.scenario(g, cfg.seed, cfg.scale)
	total := float64(sc.Requests + sc.Warmup)
	if _, err := sim.Run(sc); err != nil { // warm-up, as in the untraced run
		return nil, err
	}
	run := func(name string, sc sim.Scenario) (simRun, error) {
		r, err := timeRun(sc, rec, name)
		if err != nil {
			return r, fmt.Errorf("%s: %w", name, err)
		}
		rep.Attempted += int64(total)
		if bad := checkRun(sc, r.res); len(bad) > 0 {
			rep.Failed += int64(total)
			for _, b := range bad {
				rep.fail("%s: %s", name, b)
			}
		}
		return r, nil
	}
	// The plain run is what everything else is compared with, so it is
	// the median of three where three are cheap.
	plain, err := run("sim.Run", sc)
	if err != nil {
		return nil, err
	}
	if plain.wall < 3*time.Second {
		runs := []simRun{plain}
		for len(runs) < 3 {
			r, err := run("sim.Run", sc)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].wall < runs[j].wall })
		plain = runs[1]
	}
	// What of that run was set-up: the same scenario cut down to one
	// request, in this process, where the datasets are already built.
	one := sc
	one.Requests, one.Warmup = 1, 0
	end := rec.begin("sim.Run one request", 1)
	_, err = sim.Run(one)
	inRunSetup := end()
	if err != nil {
		return nil, err
	}
	telemetry := sc
	telemetry.EmitManifest, telemetry.EngineTelemetry = true, true
	instrumented, err := run("sim.Run with telemetry", telemetry)
	if err != nil {
		return nil, err
	}
	oneShard := sc
	oneShard.Shards = 1
	serial, err := run("sim.Run shards=1", oneShard)
	if err != nil {
		return nil, err
	}
	if a, b := digest(plain.res), digest(serial.res); a != b {
		rep.Failed += int64(total)
		rep.fail("result digest %s differs from the one-shard run's %s", a, b)
	}

	m := instrumented.res.Manifest
	s := &surface{
		catalogN: sc.CatalogSize, zipfS: sc.ZipfS, capacity: sc.Capacity, coordinated: sc.Coordinated,
		graph: g, writesStores: sc.Policy != sim.PolicyCoordinated,
		eventsPerReq:     float64(m.Engine.EventsProcessed) / total,
		pendingPeak:      float64(m.Engine.PendingPeak),
		shards:           float64(m.Engine.Shards),
		crossFrac:        float64(m.Engine.CrossShardEvents) / float64(m.Engine.EventsProcessed),
		windows:          float64(m.Engine.Windows),
		shardSpeedup:     serial.wall.Seconds() / plain.wall.Seconds(),
		txPerReq:         float64(plain.res.InterestTransmissions+plain.res.DataTransmissions) / total,
		interestTxPerReq: float64(plain.res.InterestTransmissions) / total,
		lookupsPerReq:    float64(m.NodeTotals.CSHits+m.NodeTotals.CSMisses) / total,
		localHit:         plain.res.LocalHit,
		peerHit:          plain.res.PeerHit,
		driveNs:          (plain.wall - inRunSetup).Seconds() * 1e9 / total,
		setupShare:       setup.Seconds() / plain.wall.Seconds(),
		overheadFrac:     instrumented.wall.Seconds()/plain.wall.Seconds() - 1,
	}
	var busy, waiting float64
	for _, sh := range m.Engine.ShardStats {
		busy += sh.BusyWallMs
		waiting += sh.BarrierWaitWallMs
	}
	if busy+waiting > 0 {
		s.barrierWaitFrac = waiting / (busy + waiting)
	}
	if sc.Policy == sim.PolicyCoordinated {
		want, err := modelOriginLoad(sc)
		if err != nil {
			return nil, err
		}
		s.originLoadErr = math.Abs(plain.res.OriginLoad - want)
	}
	return s, nil
}

// observability is what watching a run costs per request on the
// usa-static scenario: a stride-1 tracer writing to nowhere, and the
// manifest, each against a plain run.
func observability(cfg config, rec *recorder) (traceNs, manifestNs float64, err error) {
	w, _ := findWorkload("usa-static")
	g, err := w.sim.graph()
	if err != nil {
		return 0, 0, err
	}
	sc := w.sim.scenario(g, cfg.seed, cfg.scale)
	total := float64(sc.Requests + sc.Warmup)
	run := func(name string, sc sim.Scenario) (float64, error) {
		r, err := timeRun(sc, rec, name)
		return float64(r.wall.Nanoseconds()) / total, err
	}
	if _, err := sim.Run(sc); err != nil {
		return 0, 0, err
	}
	plain, err := run("sim.Run usa-static", sc)
	if err != nil {
		return 0, 0, err
	}
	traced := sc
	if traced.Tracer, err = trace.New(discard{}, 1); err != nil {
		return 0, 0, err
	}
	withTracer, err := run("sim.Run usa-static traced", traced)
	if err != nil {
		return 0, 0, err
	}
	manifest := sc
	manifest.EmitManifest = true
	withManifest, err := run("sim.Run usa-static manifest", manifest)
	if err != nil {
		return 0, 0, err
	}
	return withTracer - plain, withManifest - plain, nil
}

// discard is io.Discard without its ReadFrom and WriteString shortcuts, so
// the tracer pays for encoding every event.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// daemonLayer is what probing a real ccnd observed.
type daemonLayer struct {
	setupS                                    float64
	httpAdmitMs, statsMs, scrapeMs            float64
	main                                      *loadResult // the workload's own load shape, under spans
	plainP50Ms                                float64     // same shape without spans; ccnd workloads only
	capacity                                  float64     // closed-loop req/s at the default pool
	workers1                                  float64     // closed-loop req/s with one prep worker
	rejectMs, rejectFrac, goodputFrac, lateMs float64
	replans, replanWallMs                     float64
	final                                     daemon.Snapshot
}

// timeCall returns the median round trip, in ms, of n calls of fn under a
// span each.
func timeCall(rec *recorder, name string, n int, fn func() error) (float64, error) {
	var ms sample
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		rec.leaf(name, 1, t0, t1)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ms = append(ms, t1.Sub(t0).Seconds()*1e3)
	}
	return median(ms), nil
}

// probeDaemon spawns a ccnd and takes every daemon-side layer metric from
// it: single round trips, the workload's own load shape (closed loop for
// the sim workloads, which have none) with and without spans, capacity at
// the default and at one prep worker, and an open-loop burst at twice the
// capacity to find the refusal knee.
func probeDaemon(w workload, cfg config, rec *recorder, rep *report) (*daemonLayer, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	manifest := filepath.Join(cfg.outDir, "manifest-traced-"+w.Name+".json")
	spec := daemonSpec{count: batchCount}
	if w.daemon != nil {
		spec = *w.daemon
	}
	end := rec.begin("ccnd set-up", 1)
	p, setup, err := ccndSetup(cfg, spec.count, manifest)
	end()
	if err != nil {
		return nil, err
	}
	defer p.kill()
	out := &daemonLayer{setupS: setup.Seconds()}
	c := newClient(p.base)
	admitted := int64(spec.count) // the set-up batch
	phase := time.Duration(cfg.seconds / 6 * float64(time.Second) / float64(cfg.scale))

	// Single round trips. Each batch is waited for, outside the timed
	// call, so that nothing queues.
	var admits sample
	for i := 0; i < 30; i++ {
		t0 := time.Now()
		seq, status, err := c.submit(spec.count)
		t1 := time.Now()
		rec.leaf("POST /requests", 1, t0, t1)
		if err != nil || status != http.StatusAccepted {
			return nil, fmt.Errorf("POST /requests: status %d, %v", status, err)
		}
		admits = append(admits, t1.Sub(t0).Seconds()*1e3)
		admitted += int64(spec.count)
		if _, _, err := c.waitSimulated(seq, t1.Add(batchTimeout)); err != nil {
			return nil, err
		}
	}
	out.httpAdmitMs = median(admits)
	if out.statsMs, err = timeCall(rec, "GET /stats", 200, func() error { _, err := c.stats(); return err }); err != nil {
		return nil, err
	}
	if out.scrapeMs, err = timeCall(rec, "GET /metrics", 30, func() error {
		status, _, err := c.do(http.MethodGet, "/metrics", nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		return err
	}); err != nil {
		return nil, err
	}

	// load runs one phase and folds its accounting into the report.
	// Refusals are legitimate only in the overload burst.
	load := func(name string, overload bool, run func(r *recorder) *loadResult, r *recorder) *loadResult {
		end := rec.begin(name, 1)
		res := run(r)
		end()
		admitted += int64(res.sent-res.refused-res.failed) * int64(res.count)
		rep.Attempted += int64(res.sent) * int64(res.count)
		rep.Failed += int64(res.failed) * int64(res.count)
		if !overload {
			rep.Failed += int64(res.refused) * int64(res.count)
			if res.refused > 0 {
				rep.fail("%s: %d batches were refused with 429", name, res.refused)
			}
		}
		for _, problem := range res.problems {
			rep.fail("%s: %s", name, problem)
		}
		return res
	}
	closed := func(d time.Duration) func(*recorder) *loadResult {
		return func(r *recorder) *loadResult { return closedLoop(p, saturateClients, spec.count, d, r) }
	}
	shape := func(r *recorder) *loadResult { return spec.load(p, cfg.seed, 2*phase, r) }
	if w.daemon != nil {
		plain := load("load without spans", false, shape, nil)
		out.plainP50Ms = median(plain.latenciesMs)
	}
	out.main = load("load with spans", false, shape, rec)
	if len(out.main.latenciesMs) == 0 {
		return nil, fmt.Errorf("no batch completed under load")
	}
	saturated := out.main
	if spec.openLoop {
		saturated = load("closed loop", false, closed(phase), rec)
	}
	out.capacity = saturated.completedRequests() / saturated.wall.Seconds()

	scaleTo := func(workers int) error {
		status, _, err := c.do(http.MethodPost, "/scaling", []byte(fmt.Sprintf(`{"workers":%d}`, workers)))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("POST /scaling: status %d, %v", status, err)
		}
		return nil
	}
	if err := scaleTo(1); err != nil {
		return nil, err
	}
	one := load("closed loop, 1 worker", false, closed(phase), rec)
	out.workers1 = one.completedRequests() / one.wall.Seconds()
	if err := scaleTo(2); err != nil {
		return nil, err
	}

	// Twice the capacity, open loop: the queue fills and ccnd refuses.
	rate := 2 * out.capacity / float64(spec.count)
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	burst := load("open loop at 2x capacity", true, func(r *recorder) *loadResult {
		return openLoop(p, poissonSchedule(rng, max(int(rate*phase.Seconds()), 1), rate), spec.count, r)
	}, rec)
	out.rejectFrac = float64(burst.refused) / float64(burst.sent)
	out.rejectMs = median(burst.rejectMs)
	if len(burst.rejectMs) == 0 {
		out.rejectMs = 0 // nothing was refused: the share above says so
	}
	out.goodputFrac = burst.completedRequests() / burst.wall.Seconds() / out.capacity
	out.lateMs = out.main.lateMaxMs
	if !spec.openLoop {
		out.lateMs = burst.lateMaxMs // the only open loop this run had
	}

	status, data, err := c.do(http.MethodGet, "/timeline", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /timeline: status %d, %v", status, err)
	}
	var records []timeline.EpochRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("decoding /timeline: %w", err)
	}
	for _, r := range records {
		out.replanWallMs += r.WallMs / float64(len(records))
	}
	out.replans = float64(len(records))
	if out.final, err = c.stats(); err != nil {
		return nil, err
	}

	if _, wholesale := p.drain(admitted); len(wholesale) > 0 {
		rep.Failed = rep.Attempted
		for _, problem := range wholesale {
			rep.fail("ccnd: %s", problem)
		}
	}
	return out, nil
}

// daemonSurface reads a ccnd workload's per-request counts from the
// daemon's final /stats. ccnd publishes no transmission counts; a request
// served h links away costs h interest and h data transmissions, so twice
// the mean hop count stands in for them.
func daemonSurface(w workload, dl *daemonLayer, inprocBatchMs float64) (*surface, error) {
	t, e := dl.final.Totals, dl.final.Engine
	if t.Completed == 0 {
		return nil, fmt.Errorf("ccnd completed no request")
	}
	completed := float64(t.Completed)
	s := &surface{
		catalogN: 20000, zipfS: dl.final.Workload.ZipfS, capacity: 150, coordinated: 75,
		graph:        topology.USA(),
		eventsPerReq: float64(e.EventsProcessed) / completed,
		pendingPeak:  float64(e.PendingPeak),
		shards:       float64(e.Shards),
		crossFrac:    float64(e.CrossShardEvents) / float64(e.EventsProcessed),
		shardSpeedup: 1, // ccnd hosts the serial engine
		txPerReq:     2 * t.MeanHops, interestTxPerReq: t.MeanHops,
		lookupsPerReq: 1 + t.MeanHops,
		localHit:      t.LocalHit, peerHit: t.PeerHit,
		driveNs:      inprocBatchMs * 1e6 / batchCount,
		setupShare:   dl.setupS / (dl.setupS + dl.main.wall.Seconds()),
		overheadFrac: median(dl.main.latenciesMs)/dl.plainP50Ms - 1,
	}
	sc := sim.Scenario{Topology: s.graph, ZipfS: s.zipfS, CatalogSize: s.catalogN, Capacity: s.capacity, Coordinated: s.coordinated}
	want, err := modelOriginLoad(sc)
	if err != nil {
		return nil, err
	}
	s.originLoadErr = math.Abs(t.OriginLoad - want)
	return s, nil
}

// runTraced produces every per-layer metric for one workload: it runs the
// workload's own surface under spans for the exact counts, then each
// layer's micro-driver fed with that surface's catalogue, graph and engine
// depth, then the daemon probes, and attributes the drive time.
func runTraced(w workload, cfg config) (*report, error) {
	rec := newRecorder(w.Name)
	rep := newReport(perLayer)
	l := &layers{rec: rec, seed: cfg.seed, scale: cfg.scale}
	endRoot := rec.begin("traced "+w.Name, 1)

	usa := topology.USA()
	submitNs, inprocMs, err := l.daemonInProcess(usa)
	if err != nil {
		return nil, err
	}
	dl, err := probeDaemon(w, cfg, rec, rep)
	if err != nil {
		return nil, err
	}
	var s *surface
	if w.sim != nil {
		s, err = tracedSim(w, cfg, rec, rep)
	} else {
		s, err = daemonSurface(w, dl, inprocMs)
	}
	if err != nil {
		return nil, err
	}

	sampleNs, sampleAllocs, err := l.zipfSample(s.zipfS, s.catalogN)
	if err != nil {
		return nil, err
	}
	eventNs, err := l.desEvent(int(s.pendingPeak))
	if err != nil {
		return nil, err
	}
	hopNs, hopAllocs, err := l.ccnHop(eventNs)
	if err != nil {
		return nil, err
	}
	aggNs, err := l.ccnPITAggregate()
	if err != nil {
		return nil, err
	}
	stream, err := l.zipfStream(s.zipfS, s.catalogN, 1<<16)
	if err != nil {
		return nil, err
	}
	lookupNs, err := l.cacheLookup(stream, s.capacity-s.coordinated, s.coordinated, s.graph.N())
	if err != nil {
		return nil, err
	}
	lruNs, lruAllocs, err := l.cacheLRU(stream, int(s.capacity))
	if err != nil {
		return nil, err
	}
	denseNs := l.denseNext(usa)
	end := rec.begin("topology.Hierarchical", 1)
	hier, err := hierGraph()
	buildS := end().Seconds()
	if err != nil {
		return nil, err
	}
	lru, err := l.lruPaths(hier, sim.ResolveShards(sim.Scenario{Topology: hier}))
	if err != nil {
		return nil, err
	}
	// One epoch's reports: what ccnd's routers saw in 50 000 requests, or,
	// on the big graph, what its routers see in one run.
	perRouter := 50000 / s.graph.N()
	if w.sim != nil {
		perRouter = w.sim.scenario(s.graph, cfg.seed, 1).Requests / s.graph.N()
	}
	epochMs, epochMsgs, boundFrac, err := l.coordEpoch(s.graph, stream, perRouter, s.capacity-s.coordinated, max(s.coordinated, 1))
	if err != nil {
		return nil, err
	}
	emitNs, offNs, offAllocs, err := l.traceEmit()
	if err != nil {
		return nil, err
	}
	observeNs, err := l.histogramObserve()
	if err != nil {
		return nil, err
	}
	appendNs := l.ringAppend()
	traceNs, manifestNs, err := observability(cfg, rec)
	if err != nil {
		return nil, err
	}

	// Attribute the drive time. The hop cost was measured on empty static
	// stores and a dense line, so store and routing work beyond that is
	// added per lookup and per forwarded interest.
	storeNs, routeNs := lookupNs, denseNs
	if s.writesStores {
		storeNs = lruNs
	}
	if s.graph.N() >= topology.DenseAutoThreshold {
		routeNs = lru.nextNs
	}
	att := attribution{DriveNsPerReq: s.driveNs, Terms: map[string]float64{
		"zipf":     sampleNs,
		"des":      eventNs * s.eventsPerReq,
		"ccn":      hopNs * s.txPerReq,
		"cache":    storeNs * s.lookupsPerReq,
		"topology": routeNs * s.interestTxPerReq,
		"metrics":  observeNs,
	}}
	att.Unattributed = att.DriveNsPerReq
	for _, ns := range att.Terms {
		att.Unattributed -= ns
	}
	endRoot()

	rep.set("zipf.sample_ns", sampleNs)
	rep.set("zipf.sample_allocs", sampleAllocs)
	rep.set("des.event_ns", eventNs)
	rep.set("des.events_per_req", s.eventsPerReq)
	rep.set("des.pending_peak", s.pendingPeak)
	rep.set("des.shards", s.shards)
	rep.set("des.cross_shard_frac", s.crossFrac)
	rep.set("des.barrier_wait_frac", s.barrierWaitFrac)
	rep.set("des.windows", s.windows)
	rep.set("des.shard_speedup", s.shardSpeedup)
	rep.set("ccn.hop_ns", hopNs)
	rep.set("ccn.hop_allocs", hopAllocs)
	rep.set("ccn.pit_agg_ns", aggNs)
	rep.set("ccn.tx_per_req", s.txPerReq)
	rep.set("cache.lookup_ns", lookupNs)
	rep.set("cache.lru_insert_ns", lruNs)
	rep.set("cache.lru_allocs", lruAllocs)
	rep.set("cache.local_hit_ratio", s.localHit)
	rep.set("cache.peer_hit_ratio", s.peerHit)
	rep.set("topology.dense_next_ns", denseNs)
	rep.set("topology.lru_next_ns", lru.nextNs)
	rep.set("topology.lru_miss_ms", lru.missMs)
	rep.set("topology.lru_hit_ratio", lru.hitRatio)
	rep.set("topology.partition_s", lru.partitionS)
	rep.set("topology.maxdist_s", lru.maxDistS)
	rep.set("topology.build_s", buildS)
	rep.set("coord.epoch_ms", epochMs)
	rep.set("coord.msgs_per_epoch", epochMsgs)
	rep.set("coord.msg_bound_frac", boundFrac)
	rep.set("trace.emit_ns", emitNs)
	rep.set("trace.disabled_emit_ns", offNs)
	rep.set("trace.disabled_allocs", offAllocs)
	rep.set("trace.overhead_ns_per_req", traceNs)
	rep.set("metrics.manifest_overhead_ns_per_req", manifestNs)
	rep.set("metrics.observe_ns", observeNs)
	rep.set("timeline.append_ns", appendNs)
	rep.set("sim.drive_ns_per_req", att.DriveNsPerReq)
	rep.set("sim.setup_share", s.setupShare)
	rep.set("sim.unattributed_ns_per_req", att.Unattributed)
	rep.set("sim.origin_load_err", s.originLoadErr)
	rep.set("daemon.submit_ns", submitNs)
	rep.set("daemon.inproc_batch_ms", inprocMs)
	rep.set("daemon.http_admit_ms", dl.httpAdmitMs)
	rep.set("daemon.stats_ms", dl.statsMs)
	rep.set("obs.metrics_scrape_ms", dl.scrapeMs)
	rep.set("daemon.replans", dl.replans)
	rep.set("daemon.replan_wall_ms", dl.replanWallMs)
	rep.set("daemon.req_per_s_workers1", dl.workers1)
	rep.set("daemon.reject_ms", dl.rejectMs)
	rep.set("daemon.reject_frac_2x", dl.rejectFrac)
	rep.set("daemon.overload_goodput_frac", dl.goodputFrac)
	rep.set("bench.generator_late_ms_max", dl.lateMs)
	rep.set("bench.poll_interval_ms", dl.main.pollIntervalMs())
	rep.set("bench.trace_overhead_frac", s.overheadFrac)

	if err := rec.write(cfg.outDir, att); err != nil {
		return nil, err
	}
	return rep, nil
}
