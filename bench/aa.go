package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads:
// each end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := &benchmarkFile{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return b, nil
}

// cpuModel names the processor, for the header of recorded numbers.
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux; the header then says so
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// runAA runs the untraced set twice on the same code and seed and prints,
// for every workload and end-to-end metric, both values, how much worse the
// second is than the first, and whether that is within the metric's bound.
// Two sets compare only at equal cores, so the header records them.
func runAA() error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sets [2]map[string]*report
	allCorrect := true
	for i := range sets {
		fmt.Printf("=== set %d\n", i+1)
		reports, ok, err := runSet(false)
		if err != nil {
			return err
		}
		sets[i], allCorrect = reports, allCorrect && ok
	}
	fmt.Printf("=== A/A  cores=%d  %s  %s/%s  cpu=%q\n", runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	fmt.Printf("%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	within := true
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := sets[0][w.Name].Metrics[m.Name].Value, sets[1][w.Name].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict, within = "OVER", false
			}
			fmt.Printf("%-14s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", w.Name, m.Name, a, b, worse*100, m.Bound*100, verdict)
		}
		fmt.Printf("%-14s ops_failed %d and %d\n", w.Name, sets[0][w.Name].Failed, sets[1][w.Name].Failed)
	}
	if !allCorrect {
		return fmt.Errorf("a workload failed its checks")
	}
	if !within {
		return fmt.Errorf("the two sets differ by more than a metric's bound")
	}
	return nil
}

// recordGolden runs the deterministic workloads at cfg's seed and stores
// what they computed as the new golden values.
func recordGolden(cfg config, path string) error {
	cfg.golden = &goldenFile{Sim: map[string]string{}, Daemon: map[string]hitTotals{}}
	for _, w := range workloads {
		if w.daemon != nil && !w.daemon.openLoop {
			continue // a closed loop admits as many batches as time allows
		}
		rep, err := runWorkload(w, cfg, false)
		if err != nil {
			return err
		}
		if !rep.Correct {
			return fmt.Errorf("%s failed its checks: %s", w.Name, strings.Join(rep.problems, "; "))
		}
		if w.sim != nil {
			cfg.golden.Sim[rep.goldenKey] = rep.digest
		} else {
			cfg.golden.Daemon[rep.goldenKey] = rep.hits
		}
		fmt.Printf("%s: %s\n", w.Name, rep.goldenKey)
	}
	return cfg.golden.save(path)
}
