package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ccncoord/internal/par"
	"ccncoord/internal/sim"
	"ccncoord/internal/trace"
)

// The experiment harness fans independent work units — figure grid
// points, table rows, seeded replicas — across a bounded worker pool.
// Every unit writes only its own pre-assigned result slot, so parallel
// output is byte-identical to a serial run: the pool changes wall-clock
// time, never results.

// workerCount holds the configured pool width; 0 selects
// par.DefaultWorkers (GOMAXPROCS).
var workerCount atomic.Int32

// SetWorkers sets the worker-pool width used by all experiment
// generators. Non-positive restores the default (GOMAXPROCS). Safe to
// call concurrently, though the intent is one call at program start
// (cmd/ccnexp's -workers flag).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerCount.Store(int32(n))
}

// Workers returns the effective worker-pool width.
func Workers() int {
	if n := int(workerCount.Load()); n > 0 {
		return n
	}
	return par.DefaultWorkers()
}

// runShards holds the shard-count override applied to every simulation
// (cmd/ccnexp's -shards flag); 0 leaves each scenario's own setting.
var runShards atomic.Int32

// SetShards overrides Scenario.Shards on every simulation the
// experiment generators run: 1 forces the serial engine, N > 1 requests
// N event-loop shards, and 0 (the default) keeps each scenario's own
// setting — normally the auto rule. Sharding never changes results
// (see sim.Scenario.Shards), so artifacts stay byte-identical across
// shard counts.
func SetShards(n int) {
	if n < 0 {
		n = 0
	}
	runShards.Store(int32(n))
}

// Shards returns the shard-count override set with SetShards (0 = keep
// each scenario's own setting).
func Shards() int { return int(runShards.Load()) }

// runTracer holds the optional tracer shared by every simulation the
// experiment generators run (cmd/ccnexp's -trace flag).
var runTracer atomic.Pointer[trace.Tracer]

// SetTracer attaches a tracer to every simulation run the experiment
// generators perform; nil detaches. Tracing never perturbs results, but
// with a pool width above 1 the sampling stride applies to the
// interleaved event stream of concurrent runs, so the selected events
// (not the results) depend on scheduling — see internal/trace.
func SetTracer(tr *trace.Tracer) { runTracer.Store(tr) }

// Tracer returns the tracer attached with SetTracer, or nil.
func Tracer() *trace.Tracer { return runTracer.Load() }

// Progress is the subset of a live-observability tracker the
// experiment engine drives: one SimStarted/SimFinished pair brackets
// every simulation, from any worker goroutine.
type Progress interface {
	SimStarted()
	SimFinished(requests int64)
}

// progressBox wraps the interface so it can live in an atomic.Pointer.
type progressBox struct{ p Progress }

var runProgress atomic.Pointer[progressBox]

// SetProgress attaches a progress tracker to every simulation the
// experiment generators run (cmd/ccnexp's -http flag); nil detaches.
// Progress ticks are pure observation — they never influence results.
func SetProgress(p Progress) {
	if p == nil {
		runProgress.Store(nil)
		return
	}
	runProgress.Store(&progressBox{p: p})
}

// shardFallbacks collects the distinct reasons an explicitly requested
// multi-shard run fell back to the serial engine. An artifact sweep
// runs hundreds of scenarios from concurrent workers; the set keeps one
// entry per reason, and ShardFallbacks reports them in sorted order, so
// what the operator sees does not depend on which worker met a reason
// first.
var shardFallbacks sync.Map

// noteShardFallback records why sc, if it explicitly requests shards,
// falls back to the serial engine.
func noteShardFallback(sc sim.Scenario) {
	if sc.Shards < 2 || sc.Topology == nil {
		return
	}
	if n, reason := sim.ResolveShardsReason(sc); n == 1 && reason != "" {
		shardFallbacks.Store(reason, struct{}{})
	}
}

// ShardFallbacks returns, sorted, every distinct reason an explicit
// shard request fell back to the serial engine in the simulations run
// so far (cmd/ccnexp warns with them when the sweep ends). Fallbacks
// never change results, only which engine produced them.
func ShardFallbacks() []string {
	var reasons []string
	shardFallbacks.Range(func(k, _ any) bool {
		reasons = append(reasons, k.(string))
		return true
	})
	sort.Strings(reasons)
	return reasons
}

// runSim executes one scenario with the package tracer attached and
// the progress tracker ticked. All experiment generators funnel their
// simulations through here, so one SetTracer call traces every run of
// an artifact sweep.
func runSim(sc sim.Scenario) (sim.Result, error) {
	if sc.Tracer == nil {
		sc.Tracer = Tracer()
	}
	if sc.Shards == 0 {
		sc.Shards = Shards()
	}
	noteShardFallback(sc)
	var prog Progress
	if b := runProgress.Load(); b != nil {
		prog = b.p
		prog.SimStarted()
	}
	res, err := sim.Run(sc)
	if prog != nil {
		prog.SimFinished(int64(res.Requests))
	}
	return res, err
}

// forEach runs fn over [0, n) on the configured pool.
func forEach(n int, fn func(i int) error) error {
	return par.ForEach(Workers(), n, fn)
}

// parRows evaluates n table rows on the pool, in deterministic order.
func parRows(n int, row func(i int) ([]string, error)) ([][]string, error) {
	return par.Map(Workers(), n, row)
}

// sweep fills fig with one series per curve value, evaluating every
// (curve, point) grid cell on the worker pool. Each cell writes only its
// own Y slot, so the resulting figure is identical to a serial fill.
func sweep(fig *Figure, curves []float64, label func(c float64) string, xs []float64,
	eval func(c, x float64) (float64, error)) error {
	fig.Series = make([]Series, len(curves))
	for i, c := range curves {
		fig.Series[i] = Series{
			Label: label(c),
			X:     append([]float64(nil), xs...),
			Y:     make([]float64, len(xs)),
		}
	}
	return forEach(len(curves)*len(xs), func(idx int) error {
		ci, xi := idx/len(xs), idx%len(xs)
		v, err := eval(curves[ci], xs[xi])
		if err != nil {
			return err
		}
		fig.Series[ci].Y[xi] = v
		return nil
	})
}

// ReplicaStats aggregates one metric over independently seeded replicas.
type ReplicaStats struct {
	Mean   float64
	StdErr float64 // standard error of the mean (0 with one replica)
}

// replicaStats reduces per-replica samples in input order, so the result
// does not depend on completion order.
func replicaStats(samples []float64) ReplicaStats {
	n := float64(len(samples))
	if n == 0 {
		return ReplicaStats{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / n
	if len(samples) < 2 {
		return ReplicaStats{Mean: mean}
	}
	var ss float64
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	variance := ss / (n - 1)
	return ReplicaStats{Mean: mean, StdErr: math.Sqrt(variance / n)}
}

// RunReplicas executes replicas of sc with decorrelated seeds on the
// worker pool and returns the per-replica results in replica order. The
// scenario's own seed yields replica 0; further replicas derive their
// seeds by mixing the replica index, matching the simulator's per-router
// derivation quality (no two replicas share workload or arrival
// streams).
func RunReplicas(sc sim.Scenario, replicas int) ([]sim.Result, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("experiments: need at least 1 replica, got %d", replicas)
	}
	return par.Map(Workers(), replicas, func(i int) (sim.Result, error) {
		rsc := sc
		if i > 0 {
			rsc.Seed = sim.ReplicaSeed(sc.Seed, i)
		}
		// Clone the topology so parallel replicas never share graph
		// state, whatever the data plane does with it.
		rsc.Topology = sc.Topology.Clone()
		res, err := runSim(rsc)
		if err != nil {
			return sim.Result{}, fmt.Errorf("experiments: replica %d: %w", i, err)
		}
		return res, nil
	})
}
