package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"ccncoord/internal/cache"
	"ccncoord/internal/catalog"
	"ccncoord/internal/ccn"
	"ccncoord/internal/coord"
	"ccncoord/internal/daemon"
	"ccncoord/internal/des"
	"ccncoord/internal/metrics"
	"ccncoord/internal/timeline"
	"ccncoord/internal/topology"
	"ccncoord/internal/trace"
	"ccncoord/internal/zipf"
)

// layers drives each layer's public functions on their own, fed with the
// traced workload's catalogue, graph and engine depth, under one span per
// batch of calls. Every driver returns the median over its repeats.
type layers struct {
	rec   *recorder
	seed  int64
	scale int // divisor of operation counts; 1 except in the smoke test
}

// reps is how often each micro-driver repeats its batch of calls.
const reps = 5

// perOp runs fn, which makes ops calls, reps times under a span each and
// returns the median time and allocation count of one call.
func (l *layers) perOp(name string, ops int, fn func()) (ns, allocs float64) {
	var nss, as sample
	for i := 0; i < reps; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		end := l.rec.begin(name, ops)
		fn()
		d := end()
		runtime.ReadMemStats(&after)
		nss = append(nss, float64(d.Nanoseconds())/float64(ops))
		as = append(as, float64(after.Mallocs-before.Mallocs)/float64(ops))
	}
	return median(nss), median(as)
}

// ops scales an operation count down for the smoke test.
func (l *layers) ops(n int) int { return max(n/l.scale, 100) }

// sink keeps the compiler from discarding the measured calls.
var sink int64

// zipfStream is a precomputed request stream, so that drivers of other
// layers pay an array read per request and not a sample.
func (l *layers) zipfStream(s float64, n int64, length int) ([]catalog.ID, error) {
	sh, err := zipf.NewShape(s, n)
	if err != nil {
		return nil, err
	}
	sm, err := sh.Sampler(rand.New(rand.NewSource(l.seed)))
	if err != nil {
		return nil, err
	}
	ids := make([]catalog.ID, length)
	for i := range ids {
		ids[i] = catalog.ID(sm.Next())
	}
	return ids, nil
}

func (l *layers) zipfSample(s float64, n int64) (ns, allocs float64, err error) {
	sh, err := zipf.NewShape(s, n)
	if err != nil {
		return 0, 0, err
	}
	sm, err := sh.Sampler(rand.New(rand.NewSource(l.seed)))
	if err != nil {
		return 0, 0, err
	}
	ops := l.ops(2000000)
	ns, allocs = l.perOp("zipf.Sampler.Next", ops, func() {
		for i := 0; i < ops; i++ {
			sink += sm.Next()
		}
	})
	return ns, allocs, nil
}

// desEvent times Schedule+Run of no-op events with the heap held at depth
// pending: every event that fires schedules its successor.
func (l *layers) desEvent(pending int) (float64, error) {
	pending = max(pending, 1)
	ops := l.ops(1000000)
	rng := rand.New(rand.NewSource(l.seed))
	delays := make([]float64, 1024)
	for i := range delays {
		delays[i] = rng.ExpFloat64()
	}
	var failed error
	ns, _ := l.perOp("des.Engine.Schedule+Run", ops+pending, func() {
		eng := &des.Engine{}
		left, k := ops, 0
		var tick func()
		tick = func() {
			if left > 0 {
				left--
				k++
				if err := eng.Schedule(delays[k&1023], tick); err != nil {
					failed = err
				}
			}
		}
		for i := 0; i < pending; i++ {
			if err := eng.Schedule(delays[i&1023], tick); err != nil {
				failed = err
			}
		}
		eng.Run()
		sink += int64(eng.Processed())
	})
	return ns, failed
}

// lineNetwork is a 16-router line with stores that stay empty and the
// origin behind the far end: every request from router 0 crosses every
// link twice.
func lineNetwork(eng *des.Engine) (*ccn.Network, error) {
	const n = 16
	g := topology.New("line16")
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("r%d", i), 0, 0)
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(topology.NodeID(i), topology.NodeID(i+1), 1); err != nil {
			return nil, err
		}
	}
	cat, err := catalog.New(1<<20, "/bench")
	if err != nil {
		return nil, err
	}
	net, err := ccn.NewNetwork(eng, g, cat, ccn.Options{
		AccessLatency: 1,
		Stores:        func(topology.NodeID) (cache.Store, error) { return cache.NewStatic(nil) },
	})
	if err != nil {
		return nil, err
	}
	return net, net.AttachOriginAt(n-1, 1)
}

// lineStats is what one run of the line network cost and did.
type lineStats struct {
	wall       time.Duration
	mallocs    uint64
	events     uint64 // engine events processed
	tx         int64  // interest and data transmissions over links
	aggregated int64  // requests collapsed into a pending one at router 0
}

// lineRun issues bursts of burst same-content requests at router 0, one
// burst every 0.05 simulated ms with a content of its own, and runs the
// engine dry under a span.
func (l *layers) lineRun(name string, bursts, burst int) (lineStats, error) {
	eng := &des.Engine{}
	net, err := lineNetwork(eng)
	if err != nil {
		return lineStats{}, err
	}
	var failed error
	done := func(r ccn.RequestResult) {
		if r.Failed {
			failed = fmt.Errorf("request for content %d failed", r.Content)
		}
	}
	for b := 0; b < bursts; b++ {
		id := catalog.ID(b%(1<<20) + 1)
		if err := eng.At(float64(b)*0.05, func() {
			for i := 0; i < burst; i++ {
				if err := net.Request(0, id, done); err != nil {
					failed = err
				}
			}
		}); err != nil {
			return lineStats{}, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end := l.rec.begin(name, bursts*burst)
	eng.Run()
	wall := end()
	runtime.ReadMemStats(&after)
	st, err := net.Stats(0)
	if err != nil {
		return lineStats{}, err
	}
	return lineStats{
		wall: wall, mallocs: after.Mallocs - before.Mallocs, events: eng.Processed(),
		tx: net.InterestTransmissions() + net.DataTransmissions(), aggregated: st.Aggregated,
	}, failed
}

// ccnHop is the time and allocations of one link transmission — interest
// or data, with the store lookup, PIT work and routing step it causes —
// after taking out the engine's own per-event cost.
func (l *layers) ccnHop(eventNs float64) (ns, allocs float64, err error) {
	requests := l.ops(20000)
	var nss, as sample
	for i := 0; i < reps; i++ {
		r, err := l.lineRun("ccn.Network.Request x16 hops", requests, 1)
		if err != nil {
			return 0, 0, err
		}
		if r.tx == 0 {
			return 0, 0, fmt.Errorf("line network transmitted nothing")
		}
		nss = append(nss, (float64(r.wall.Nanoseconds())-eventNs*float64(r.events))/float64(r.tx))
		as = append(as, float64(r.mallocs)/float64(r.tx))
	}
	return median(nss), median(as), nil
}

// ccnPITAggregate is the cost of one request that finds its content already
// pending at its router: bursts of 64 same-content requests against the
// same number of lone requests.
func (l *layers) ccnPITAggregate() (float64, error) {
	const burst = 64
	bursts := l.ops(4000)
	var nss sample
	for i := 0; i < reps; i++ {
		lone, err := l.lineRun("ccn.Network.Request lone", bursts, 1)
		if err != nil {
			return 0, err
		}
		full, err := l.lineRun("ccn.Network.Request burst of 64", bursts, burst)
		if err != nil {
			return 0, err
		}
		if want := int64(bursts * (burst - 1)); full.aggregated != want {
			return 0, fmt.Errorf("%d requests aggregated, expected %d", full.aggregated, want)
		}
		nss = append(nss, float64((full.wall-lone.wall).Nanoseconds())/float64(full.aggregated))
	}
	return median(nss), nil
}

// cacheLookup times Partitioned.Lookup over a replicated top band and a
// striped slice, as the coordinated placement provisions a router.
func (l *layers) cacheLookup(stream []catalog.ID, local, coordinated int64, routers int) (float64, error) {
	top, err := cache.NewStaticRange(1, local)
	if err != nil {
		return 0, err
	}
	slice := make([]catalog.ID, 0, coordinated)
	for i := int64(0); i < coordinated; i++ {
		slice = append(slice, catalog.ID(local+1+i*int64(routers)))
	}
	striped, err := cache.NewStatic(slice)
	if err != nil {
		return 0, err
	}
	store, err := cache.NewPartitioned(top, striped)
	if err != nil {
		return 0, err
	}
	ops := l.ops(4000000)
	ns, _ := l.perOp("cache.Partitioned.Lookup", ops, func() {
		hits := 0
		for i := 0; i < ops; i++ {
			if store.Lookup(stream[i%len(stream)]) {
				hits++
			}
		}
		sink += int64(hits)
	})
	return ns, nil
}

// cacheLRU times Lookup, and Insert after a miss, on a store far smaller
// than the catalogue, so most operations evict.
func (l *layers) cacheLRU(stream []catalog.ID, capacity int) (ns, allocs float64, err error) {
	store, err := cache.NewLRU(capacity)
	if err != nil {
		return 0, 0, err
	}
	ops := l.ops(2000000)
	ns, allocs = l.perOp("cache.LRU.Lookup+Insert", ops, func() {
		for i := 0; i < ops; i++ {
			if id := stream[i%len(stream)]; !store.Lookup(id) {
				store.Insert(id)
			}
		}
	})
	return ns, allocs, nil
}

func (l *layers) denseNext(g *topology.Graph) float64 {
	apsp := g.ShortestPathsLatency()
	n := g.N()
	ops := l.ops(4000000)
	ns, _ := l.perOp("topology.APSP.Next+Dist", ops, func() {
		var d float64
		for i := 0; i < ops; i++ {
			a, b := topology.NodeID(i%n), topology.NodeID((i*7+3)%n)
			sink += int64(apsp.Next(a, b))
			d += apsp.Dist(a, b)
		}
		sink += int64(d)
	})
	return ns
}

// lruRouting is what the on-demand routing backend costs on g.
type lruRouting struct {
	nextNs, missMs, hitRatio, maxDistS, partitionS float64
}

func (l *layers) lruPaths(g *topology.Graph, shards int) (lruRouting, error) {
	var out lruRouting
	n := g.N()
	capacity := topology.LRUCapacityForBudget(n, topology.DefaultLRUBudgetBytes)
	lp := topology.NewLRUPaths(g, capacity)

	var cold sample
	for i := 0; i < reps; i++ {
		end := l.rec.begin("topology.LRUPaths.Next cold", 1)
		sink += int64(lp.Next(topology.NodeID(i*(n/reps)), topology.NodeID(n-1)))
		cold = append(cold, end().Seconds()*1e3)
	}
	out.missMs = median(cold)

	ops := l.ops(2000000)
	out.nextNs, _ = l.perOp("topology.LRUPaths.Next warm", ops, func() {
		for i := 0; i < ops; i++ {
			sink += int64(lp.Next(0, topology.NodeID(i%n)))
		}
	})

	// A uniform-source stream three times as long as the graph has nodes:
	// long enough that every tree is asked for, short enough to stay cheap.
	fresh := topology.NewLRUPaths(g, capacity)
	rng := rand.New(rand.NewSource(l.seed))
	queries := max(3*n/l.scale, 10)
	end := l.rec.begin("topology.LRUPaths.Next uniform", queries)
	for i := 0; i < queries; i++ {
		sink += int64(fresh.Next(topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))))
	}
	end()
	hits, misses, _ := fresh.Stats()
	out.hitRatio = float64(hits) / float64(hits+misses)

	end = l.rec.begin("topology.LRUPaths.MaxDist", 1)
	d := topology.NewLRUPaths(g, capacity).MaxDist()
	out.maxDistS = end().Seconds()
	if math.IsInf(d, 0) {
		return out, fmt.Errorf("graph %s is not connected", g.Name())
	}

	end = l.rec.begin("topology.PartitionGraph", 1)
	_, err := topology.PartitionGraph(g, max(shards, 1))
	out.partitionS = end().Seconds()
	return out, err
}

// coordEpoch times Centralized.RunEpoch on reports in which each of the
// graph's routers saw perRouter requests of the stream.
func (l *layers) coordEpoch(g *topology.Graph, stream []catalog.ID, perRouter int, local, coordinated int64) (ms, messages, boundFrac float64, err error) {
	n := g.N()
	routers := make([]topology.NodeID, n)
	reports := make([]coord.Report, n)
	k := 0
	for i := range routers {
		routers[i] = topology.NodeID(i)
		counts := make(map[catalog.ID]int64, perRouter)
		for j := 0; j < perRouter; j++ {
			counts[stream[k%len(stream)]]++
			k++
		}
		reports[i] = coord.Report{Router: routers[i], Counts: counts}
	}
	c, err := coord.NewCentralized(routers, g.DiameterEstimate())
	if err != nil {
		return 0, 0, 0, err
	}
	var mss sample
	var cost coord.Cost
	for i := 0; i < reps; i++ {
		end := l.rec.begin("coord.Centralized.RunEpoch", 1)
		_, cost, err = c.RunEpoch(reports, local, coordinated)
		mss = append(mss, end().Seconds()*1e3)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	messages = float64(cost.Total())
	return median(mss), messages, messages / float64(2*int64(n)*coordinated), nil
}

func (l *layers) traceEmit() (emitNs, disabledNs, disabledAllocs float64, err error) {
	tr, err := trace.New(io.Discard, 1)
	if err != nil {
		return 0, 0, 0, err
	}
	ev := trace.Event{T: 12.5, Kind: trace.KindIssue, Router: 3, Content: 42, Req: 1}
	ops := l.ops(500000)
	emitNs, _ = l.perOp("trace.Tracer.Emit", ops, func() {
		for i := 0; i < ops; i++ {
			ev.Req = int64(i + 1)
			tr.Emit(ev)
		}
	})
	if err := tr.Flush(); err != nil {
		return 0, 0, 0, err
	}
	var off *trace.Tracer
	ops = l.ops(20000000)
	disabledNs, disabledAllocs = l.perOp("trace.Tracer.Emit disabled", ops, func() {
		for i := 0; i < ops; i++ {
			ev.Req = int64(i + 1)
			off.Emit(ev)
		}
	})
	return emitNs, disabledNs, disabledAllocs, nil
}

func (l *layers) histogramObserve() (float64, error) {
	h, err := metrics.NewHistogram(0, 500, 1000)
	if err != nil {
		return 0, err
	}
	ops := l.ops(20000000)
	ns, _ := l.perOp("metrics.Histogram.Observe", ops, func() {
		for i := 0; i < ops; i++ {
			h.Observe(float64(i & 511))
		}
	})
	sink += h.Count()
	return ns, nil
}

func (l *layers) ringAppend() float64 {
	ring := timeline.NewRing(1024)
	ops := l.ops(2000000)
	ns, _ := l.perOp("timeline.Ring.Append", ops, func() {
		for i := 0; i < ops; i++ {
			ring.Append(timeline.EpochRecord{Epoch: int64(i + 1), Requests: 50000, Messages: 3000})
		}
	})
	return ns
}

// daemonInProcess runs the daemon pipeline without HTTP: it times Submit,
// and a batch from Submit to the snapshot that shows it simulated.
func (l *layers) daemonInProcess(g *topology.Graph) (submitNs, batchMs float64, err error) {
	d, err := daemon.New(daemon.Config{Topology: g, OriginGateway: -1, Seed: l.seed}, nil, nil)
	if err != nil {
		return 0, 0, err
	}
	if err := d.Start(); err != nil {
		return 0, 0, err
	}
	var submits, batches sample
	for i := 0; i < max(60/l.scale, 5); i++ {
		endBatch := l.rec.begin("daemon batch in process", batchCount)
		endSubmit := l.rec.begin("daemon.Daemon.Submit", 1)
		seq, _, err := d.Submit(batchCount, -1)
		submits = append(submits, float64(endSubmit().Nanoseconds()))
		if err != nil {
			endBatch()
			_ = d.Drain("bench: submit failed") // the submit error is what is reported
			return 0, 0, err
		}
		deadline := time.Now().Add(batchTimeout)
		for uint64(d.Snapshot().Totals.BatchesSimulated) < seq {
			if time.Now().After(deadline) {
				endBatch()
				return 0, 0, fmt.Errorf("in-process batch %d not simulated within %v", seq, batchTimeout)
			}
			time.Sleep(20 * time.Microsecond)
		}
		batches = append(batches, endBatch().Seconds()*1e3)
	}
	if err := d.Drain("bench: done"); err != nil {
		return 0, 0, err
	}
	if t := d.Snapshot().Totals; t.Failed != 0 || t.Completed != t.RequestsAdmitted {
		return 0, 0, fmt.Errorf("in-process daemon completed %d of %d requests, %d failed", t.Completed, t.RequestsAdmitted, t.Failed)
	}
	return median(submits), median(batches), nil
}
