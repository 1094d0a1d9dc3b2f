package main

import (
	"fmt"

	"ccncoord/internal/sim"
	"ccncoord/internal/topology"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json repeats them, and the smoke test
// holds the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_req_per_s", "req/s"},
	{"allocs_per_req", "allocs"},
	{"bytes_per_req", "B"},
	{"peak_rss_mb", "MB"},
	{"batch_p50_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"daemon_req_per_s", "req/s"},
}

// perLayer is what a traced run reports, on every workload. A layer is a
// package under internal/; sim.* and bench.* are the attribution and
// validity rows.
var perLayer = []metricDef{
	{"zipf.sample_ns", "ns"},
	{"zipf.sample_allocs", "allocs"},
	{"des.event_ns", "ns"},
	{"des.events_per_req", "count"},
	{"des.pending_peak", "count"},
	{"des.shards", "count"},
	{"des.cross_shard_frac", "ratio"},
	{"des.barrier_wait_frac", "ratio"},
	{"des.windows", "count"},
	{"des.shard_speedup", "ratio"},
	{"ccn.hop_ns", "ns"},
	{"ccn.hop_allocs", "allocs"},
	{"ccn.pit_agg_ns", "ns"},
	{"ccn.tx_per_req", "count"},
	{"cache.lookup_ns", "ns"},
	{"cache.lru_insert_ns", "ns"},
	{"cache.lru_allocs", "allocs"},
	{"cache.local_hit_ratio", "ratio"},
	{"cache.peer_hit_ratio", "ratio"},
	{"topology.dense_next_ns", "ns"},
	{"topology.lru_next_ns", "ns"},
	{"topology.lru_miss_ms", "ms"},
	{"topology.lru_hit_ratio", "ratio"},
	{"topology.partition_s", "s"},
	{"topology.maxdist_s", "s"},
	{"topology.build_s", "s"},
	{"coord.epoch_ms", "ms"},
	{"coord.msgs_per_epoch", "count"},
	{"coord.msg_bound_frac", "ratio"},
	{"trace.emit_ns", "ns"},
	{"trace.disabled_emit_ns", "ns"},
	{"trace.disabled_allocs", "allocs"},
	{"trace.overhead_ns_per_req", "ns"},
	{"metrics.manifest_overhead_ns_per_req", "ns"},
	{"metrics.observe_ns", "ns"},
	{"timeline.append_ns", "ns"},
	{"sim.drive_ns_per_req", "ns"},
	{"sim.setup_share", "ratio"},
	{"sim.unattributed_ns_per_req", "ns"},
	{"sim.origin_load_err", "ratio"},
	{"daemon.submit_ns", "ns"},
	{"daemon.inproc_batch_ms", "ms"},
	{"daemon.http_admit_ms", "ms"},
	{"daemon.stats_ms", "ms"},
	{"obs.metrics_scrape_ms", "ms"},
	{"daemon.replans", "count"},
	{"daemon.replan_wall_ms", "ms"},
	{"daemon.req_per_s_workers1", "req/s"},
	{"daemon.reject_ms", "ms"},
	{"daemon.reject_frac_2x", "ratio"},
	{"daemon.overload_goodput_frac", "ratio"},
	{"bench.generator_late_ms_max", "ms"},
	{"bench.poll_interval_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

// metric is one reported value. Runs holds the per-run values the median
// was taken over, when there was more than one.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	runs  sample
}

// report is what one run of one workload prints as its last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// defs is the table the run's metrics come from.
	defs []metricDef
	// problems lists every failed check, for the human-readable output.
	problems []string
	// goldenKey names this run in the golden file; digest (sim workloads)
	// or hits (ccnd workloads) is what the run computed under that key.
	goldenKey string
	digest    string
	hits      hitTotals
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func newReport(defs []metricDef) *report {
	return &report{Metrics: map[string]metric{}, defs: defs}
}

// set records a metric as the median of its per-run values.
func (r *report) set(name string, values ...float64) {
	for _, d := range r.defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: median(values), Unit: d.Unit, runs: values}
			return
		}
	}
	panic("bench: metric " + name + " is not defined")
}

// batchCount is the request count of one ccnd batch, and the size the sim
// workloads scale their per-run time to when they report batch_*_ms.
const batchCount = 5000

// workload is one set of inputs the benchmark runs. Exactly one of sim and
// daemon is set.
type workload struct {
	Name   string
	Why    string
	sim    *simSpec
	daemon *daemonSpec
}

// simSpec describes a workload that calls sim.Run in-process.
type simSpec struct {
	// graph builds the topology; it is part of the measured set-up.
	graph func() (*topology.Graph, error)
	// scenario is the run on that graph, for a seed and a request divisor
	// (1 except in the smoke test).
	scenario func(g *topology.Graph, seed int64, scale int) sim.Scenario
	// minRuns is how many measured runs a run makes even when the first
	// ones already used up its seconds.
	minRuns int
	// setups is how often set-up is measured for the median.
	setups int
}

// daemonSpec describes a workload that drives a real ccnd over loopback.
type daemonSpec struct {
	// count is the number of requests in one batch.
	count int
	// openLoop selects a seeded-Poisson schedule of rate batches per
	// second; otherwise saturateClients closed-loop clients run.
	openLoop bool
	rate     float64
}

// saturateClients is the closed-loop client count: no more than the cores
// of the reference machine and far below the admission queue depth, so a
// 429 is never legitimate.
const saturateClients = 2

func usaGraph() (*topology.Graph, error) { return topology.USA(), nil }

func hierGraph() (*topology.Graph, error) {
	levels, err := topology.ParseHierSpec("10x9x10x2", "20,5,2,1", "1")
	if err != nil {
		return nil, err
	}
	return topology.Hierarchical("hier2800", levels, 1)
}

// baseScenario is what the three sim workloads share: Zipf 0.8, c=100 and
// the access and origin latencies every experiment in the repository uses.
func baseScenario(g *topology.Graph, seed int64) sim.Scenario {
	return sim.Scenario{
		Topology:      g,
		ZipfS:         0.8,
		Capacity:      100,
		Seed:          seed,
		AccessLatency: 5,
		OriginLatency: 60,
		OriginGateway: -1,
	}
}

var workloads = []workload{
	{
		Name: "usa-static",
		Why:  "US-A n=20, coordinated static stores, dense routing, serial engine: per-request cost is zipf sample + des heap + ccn hop/PIT, and a run is long enough that set-up is a few percent of it",
		sim: &simSpec{graph: usaGraph, minRuns: 3, setups: 9,
			scenario: func(g *topology.Graph, seed int64, scale int) sim.Scenario {
				sc := baseScenario(g, seed)
				sc.Policy, sc.CatalogSize, sc.Coordinated = sim.PolicyCoordinated, 10000, 50
				sc.Requests = 500000 / scale
				return sc
			}},
	},
	{
		Name: "usa-lru-gw",
		Why:  "same graph, LRU leave-copy-everywhere, origin behind router 0: every Data packet writes and evicts at each on-path store, interests travel multi-hop; a change that helps reads but costs writes shows",
		sim: &simSpec{graph: usaGraph, minRuns: 3, setups: 9,
			scenario: func(g *topology.Graph, seed int64, scale int) sim.Scenario {
				sc := baseScenario(g, seed)
				sc.Policy, sc.CatalogSize, sc.OriginGateway = sim.PolicyLRU, 10000, 0
				sc.Requests, sc.Warmup = 500000/scale, 50000/scale
				return sc
			}},
	},
	{
		Name: "hier2800",
		Why:  "2 800-router hierarchy, N=1e6, auto routing and shards: LRU path trees, graph partition, sharded engine and a heap beyond the CPU cache do the work; set-up is a quarter of a run, so setup_s is live",
		sim: &simSpec{graph: hierGraph, minRuns: 3, setups: 3,
			scenario: func(g *topology.Graph, seed int64, scale int) sim.Scenario {
				sc := baseScenario(g, seed)
				sc.Policy, sc.CatalogSize, sc.Coordinated = sim.PolicyCoordinated, 1000000, 50
				sc.Requests = 300000 / scale
				return sc
			}},
	},
	{
		Name:   "ccnd-steady",
		Why:    "real ccnd on US-A, open loop: seeded Poisson schedule of 400 batches/s x 500 requests (about 40 % of capacity), latency timed from each batch's due time; throughput is pinned, only latency can move",
		daemon: &daemonSpec{count: 500, openLoop: true, rate: 400},
	},
	{
		Name:   "ccnd-saturate",
		Why:    "same daemon, closed loop: 2 clients each POST 5000 requests and wait for them to be simulated; finds capacity, latency here is about twice the service time",
		daemon: &daemonSpec{count: batchCount},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
