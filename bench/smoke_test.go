package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ccncoord/internal/sim"
)

// smokeScale shrinks every workload's request counts and durations.
const smokeScale = "50"

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// binaries builds the benchmark and ccnd once per test process and returns
// their paths.
func binaries(t *testing.T) (bench, ccnd string) {
	t.Helper()
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "bench-smoke-"); buildErr != nil {
			return
		}
		for target, pkg := range map[string]string{"bench": ".", "ccnd": "ccncoord/cmd/ccnd"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(buildDir, target), pkg).CombinedOutput()
			if err != nil {
				buildErr = errors.New("go build " + pkg + ": " + err.Error() + "\n" + string(out))
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(buildDir, "bench"), filepath.Join(buildDir, "ccnd")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

// runBench runs one workload at smoke scale in a scratch directory and
// returns its standard output and whether it exited with code 0.
func runBench(t *testing.T, args ...string) (stdout string, ok bool) {
	t.Helper()
	bench, ccnd := binaries(t)
	cmd := exec.Command(bench, append([]string{"-ccnd", ccnd, "-scale", smokeScale, "-seconds", "1"}, args...)...)
	cmd.Dir = t.TempDir()
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("running bench %v: %v", args, err)
	}
	if stderr.Len() > 0 {
		t.Logf("stderr of bench %v:\n%s", args, stderr.String())
	}
	return string(out), err == nil
}

// lastLine parses the result line the benchmark contract asks for.
func lastLine(t *testing.T, stdout string) (rep report, raw map[string]json.RawMessage) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, stdout)
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		t.Fatal(err)
	}
	return rep, raw
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsEmitEveryMetric runs every workload untraced, and one of
// each surface traced, and holds the output against BENCHMARK.json: the
// four result keys, every metric of the run's kind exactly once under its
// declared unit, and no failed operation.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(e2e) != len(endToEnd) || len(layer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark %d+%d", len(e2e), len(layer), len(endToEnd), len(perLayer))
	}

	type run struct {
		workload string
		trace    string
		want     map[string]string
	}
	var runs []run
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
		runs = append(runs, run{w.Name, "0", e2e})
	}
	runs = append(runs, run{"usa-static", "1", layer}, run{"ccnd-steady", "1", layer})

	for _, r := range runs {
		t.Run(r.workload+"/trace="+r.trace, func(t *testing.T) {
			t.Parallel()
			stdout, ok := runBench(t, "-workload", r.workload, "-trace", r.trace)
			if !ok {
				t.Fatalf("bench exited non-zero:\n%s", stdout)
			}
			rep, raw := lastLine(t, stdout)
			if len(raw) != 4 {
				t.Errorf("result has %d keys, want correct, attempted, failed and metrics", len(raw))
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(r.want) {
				t.Errorf("%d metrics emitted, %d declared", len(rep.Metrics), len(r.want))
			}
			for name, unit := range r.want {
				if !metricName.MatchString(name) {
					t.Errorf("metric name %q is malformed", name)
				}
				got, ok := rep.Metrics[name]
				if !ok {
					t.Errorf("metric %s missing", name)
				} else if got.Unit != unit {
					t.Errorf("metric %s has unit %q, declared %q", name, got.Unit, unit)
				}
				// The human-readable part names each metric once, too.
				if n := strings.Count(stdout, "\n  "+name+" "); n != 1 {
					t.Errorf("metric %s printed %d times", name, n)
				}
			}
		})
	}
}

// TestCorruptGoldenFails pins that a golden mismatch is reported as failed
// operations and a non-zero exit, not swallowed.
func TestCorruptGoldenFails(t *testing.T) {
	t.Parallel()
	w, _ := findWorkload("usa-static")
	sc := w.sim.scenario(nil, 1, 50)
	golden := filepath.Join(t.TempDir(), "golden.json")
	g := &goldenFile{Sim: map[string]string{simGoldenKey(w.Name, 1, sc.Requests+sc.Warmup): strings.Repeat("0", 64)}}
	if err := g.save(golden); err != nil {
		t.Fatal(err)
	}
	stdout, ok := runBench(t, "-workload", w.Name, "-golden", golden)
	if ok {
		t.Errorf("bench exited 0 against a corrupt golden digest")
	}
	rep, _ := lastLine(t, stdout)
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("correct=%v failed=%d against a corrupt golden digest", rep.Correct, rep.Failed)
	}
	if !strings.Contains(stdout, "differs from the golden") {
		t.Errorf("the failed check is not named:\n%s", stdout)
	}
}

// TestShardedDigestEqualsSerial pins the equivalence the hier2800 golden
// digest rests on: the auto-sharded run computes what one shard computes.
func TestShardedDigestEqualsSerial(t *testing.T) {
	t.Parallel()
	w, _ := findWorkload("hier2800")
	g, err := w.sim.graph()
	if err != nil {
		t.Fatal(err)
	}
	auto := w.sim.scenario(g, 1, 50)
	auto.Shards = 2 // what auto resolves to on two cores, asked for outright so the test does not depend on the machine
	serial := auto
	serial.Shards = 1
	if got := sim.ResolveShards(auto); got != 2 {
		t.Fatalf("scenario resolves to %d shards, want 2", got)
	}
	a, err := sim.Run(auto)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(serial)
	if err != nil {
		t.Fatal(err)
	}
	if digest(a) != digest(b) {
		t.Errorf("sharded digest %s differs from serial %s", digest(a), digest(b))
	}
}
