package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ccncoord/internal/model"
	"ccncoord/internal/sim"
)

// config is what one run of one workload is given.
type config struct {
	seed    int64
	seconds float64
	scale   int    // divisor of request counts; 1 except in the smoke test
	ccnd    string // path of the ccnd binary
	outDir  string // where traces and daemon manifests are written
	golden  *goldenFile
}

// simRun is one timed sim.Run call.
type simRun struct {
	res    sim.Result
	wall   time.Duration
	allocs uint64
	bytes  uint64
}

// timeRun calls sim.Run once. The heap is collected first so that every
// run starts from the same state, and the allocation counters are read
// outside the timed region. A traced run passes its recorder and the name
// of the span that covers the call.
func timeRun(sc sim.Scenario, rec *recorder, span string) (simRun, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := sim.Run(sc)
	stop := time.Now()
	wall := stop.Sub(start)
	runtime.ReadMemStats(&after)
	if rec != nil {
		rec.leaf(span, sc.Requests+sc.Warmup, start, stop)
	}
	if err != nil {
		return simRun{}, err
	}
	return simRun{res: res, wall: wall, allocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}, nil
}

// setupOnly is what a set-up child process does: build the topology and
// run the scenario cut down to a single request.
func setupOnly(spec *simSpec, cfg config) error {
	g, err := spec.graph()
	if err != nil {
		return err
	}
	sc := spec.scenario(g, cfg.seed, cfg.scale)
	sc.Requests, sc.Warmup = 1, 0
	_, err = sim.Run(sc)
	return err
}

// timeSetup measures what a caller pays before the first request returns,
// in a fresh process so that nothing memoized by an earlier run is reused:
// process start, topology, routing, placement, one request, exit.
func timeSetup(w workload, cfg config) (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-only", "-workload", w.Name,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-scale", strconv.Itoa(cfg.scale))
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return time.Since(start), nil
}

// modelOriginLoad is the discrete model's origin load for a coordinated
// scenario, as experiments.ModelVsSim computes it.
func modelOriginLoad(sc sim.Scenario) (float64, error) {
	d, err := model.NewDiscrete(model.Config{
		S: sc.ZipfS, N: float64(sc.CatalogSize), C: float64(sc.Capacity),
		Routers: sc.Topology.N(), Lat: model.Latency{D0: 1, D1: 2, D2: 3}, Alpha: 1,
	})
	if err != nil {
		return 0, err
	}
	_, _, origin := d.HitRatios(sc.Coordinated)
	return origin, nil
}

// originLoadTolerance is how far a coordinated run's origin load may sit
// from the model's before the run counts as wrong.
const originLoadTolerance = 0.02

// checkRun returns what is wrong with one run's result, if anything.
func checkRun(sc sim.Scenario, res sim.Result) []string {
	var bad []string
	if res.Requests != sc.Requests {
		bad = append(bad, fmt.Sprintf("measured %d requests, asked for %d", res.Requests, sc.Requests))
	}
	if s := res.LocalHit + res.PeerHit + res.OriginLoad; math.Abs(s-1) > 1e-9 {
		bad = append(bad, fmt.Sprintf("hit tiers sum to %v, not 1", s))
	}
	if res.FailedRequests != 0 {
		bad = append(bad, fmt.Sprintf("%d requests failed", res.FailedRequests))
	}
	if sc.Policy == sim.PolicyCoordinated {
		want, err := modelOriginLoad(sc)
		if err != nil {
			bad = append(bad, "model: "+err.Error())
		} else if math.Abs(res.OriginLoad-want) > originLoadTolerance {
			bad = append(bad, fmt.Sprintf("origin load %.4f is more than %.2f from the model's %.4f", res.OriginLoad, originLoadTolerance, want))
		}
	}
	return bad
}

// peakRSSMB reads the high-water mark of a process's resident set.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// runSim measures one sim workload end to end, with nothing traced.
func runSim(w workload, cfg config) (*report, error) {
	spec := w.sim
	rep := newReport(endToEnd)

	var setups sample
	for i := 0; i < max(spec.setups/cfg.scale, 1); i++ {
		d, err := timeSetup(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	g, err := spec.graph()
	if err != nil {
		return nil, err
	}
	sc := spec.scenario(g, cfg.seed, cfg.scale)
	total := float64(sc.Requests + sc.Warmup)
	if _, err := sim.Run(sc); err != nil { // warm-up: heap grown, routes cached
		return nil, fmt.Errorf("warm-up run: %w", err)
	}

	var rate, allocs, bytes, perBatch, walls sample
	first := ""
	key := simGoldenKey(w.Name, cfg.seed, sc.Requests+sc.Warmup)
	start := time.Now()
	for n := 0; n < spec.minRuns || time.Since(start).Seconds() < cfg.seconds; n++ {
		run, err := timeRun(sc, nil, "")
		if err != nil {
			return nil, fmt.Errorf("measured run %d: %w", n+1, err)
		}
		bad := checkRun(sc, run.res)
		d := digest(run.res)
		if first == "" {
			first = d
			if want, ok := cfg.golden.Sim[key]; ok && want != d {
				bad = append(bad, fmt.Sprintf("result digest %s differs from the golden %s", d, want))
			}
		} else if d != first {
			bad = append(bad, fmt.Sprintf("result digest %s differs from the first run's %s", d, first))
		}
		// A run that fails any check counts all its requests as failed.
		rep.Attempted += int64(total)
		if len(bad) > 0 {
			rep.Failed += int64(total)
		}
		for _, b := range bad {
			rep.fail("run %d: %s", n+1, b)
		}
		secs := run.wall.Seconds()
		walls = append(walls, secs)
		rate = append(rate, total/secs)
		allocs = append(allocs, float64(run.allocs)/total)
		bytes = append(bytes, float64(run.bytes)/total)
		perBatch = append(perBatch, secs*1e3*batchCount/total)
	}

	rep.goldenKey, rep.digest = key, first

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setups...)
	rep.set("sim_req_per_s", rate...)
	rep.set("allocs_per_req", allocs...)
	rep.set("bytes_per_req", bytes...)
	rep.set("peak_rss_mb", rss)
	// No daemon runs here, so the three daemon-side metrics are the same
	// quantities taken on this surface: a batch is batchCount requests of
	// a run, its tail is the slowest measured run, and the delivered rate
	// is all requests over all measured time (a mean, where sim_req_per_s
	// is a median of runs).
	rep.set("batch_p50_ms", perBatch...)
	rep.set("batch_p99_ms", maxOf(perBatch))
	rep.set("daemon_req_per_s", total*float64(len(walls))/sum(walls))
	return rep, nil
}
