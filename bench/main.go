// Command bench is the repository benchmark: it drives the two surfaces a
// user of this repository touches — sim.Run in-process and the ccnd binary
// over loopback HTTP — on five workloads, checks what they compute, and
// prints every metric by name with its unit. See README.md.
//
//	bash bench/run.sh                       every workload, untraced
//	bash bench/run.sh --workload hier2800   one workload; last line is JSON
//	bash bench/run.sh --trace 1             per-layer metrics instead
//	bash bench/run.sh -aa                   two untraced sets, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runSeconds is how long one run measures unless --seconds says otherwise;
// BENCHMARK.json carries the same number.
const runSeconds = 12

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload, in this process, and print its result as a last line of JSON")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, nothing traced; 1: per-layer metrics from a traced run")
		ccnd    = flag.String("ccnd", ".bench_build/ccnd", "path of the ccnd binary (run.sh builds it)")
		aa      = flag.Bool("aa", false, "run two untraced sets back to back and compare their medians against each metric's bound")
		record  = flag.Bool("record-golden", false, "record the seed-1 result digests and ccnd-steady hit totals into the golden file")
		golden  = flag.String("golden", "", "golden file to check against or record into (default: bench/golden.json, compiled in)")
		scale   = flag.Int("scale", 1, "divide request counts and durations by this; for the smoke test only")
		setup   = flag.Bool("setup-only", false, "do the set-up of a sim workload and exit; what the benchmark times in a child process")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *scale < 1 || !(*seconds > 0) {
		flag.Usage()
		os.Exit(2)
	}
	g, err := loadGolden(*golden)
	if err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, scale: *scale, ccnd: *ccnd, outDir: "bench/out", golden: g}

	switch {
	case *setup:
		w, ok := findWorkload(*name)
		if !ok || w.sim == nil {
			fatal(fmt.Errorf("-setup-only needs a sim workload, got %q", *name))
		}
		err = setupOnly(w.sim, cfg)
	case *record:
		path := *golden
		if path == "" {
			path = "bench/golden.json"
		}
		err = recordGolden(cfg, path)
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		var rep *report
		if rep, err = runWorkload(w, cfg, *trace == 1); err == nil {
			printReport(w, rep, *trace == 1)
			if !rep.Correct {
				os.Exit(1)
			}
		}
	case *aa:
		err = runAA()
	default:
		var ok bool
		if _, ok, err = runSet(*trace == 1); err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runWorkload runs one workload in this process.
func runWorkload(w workload, cfg config, traced bool) (*report, error) {
	var rep *report
	var err error
	switch {
	case traced:
		rep, err = runTraced(w, cfg)
	case w.sim != nil:
		rep, err = runSim(w, cfg)
	default:
		rep, err = runDaemon(w, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rep.Correct = len(rep.problems) == 0 && rep.Failed == 0
	return rep, nil
}

// printReport writes the run's metrics, then what failed, then the one
// line of JSON the benchmark contract asks for.
func printReport(w workload, rep *report, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("workload %s  cores=%d  %s\n", w.Name, runtime.GOMAXPROCS(0), runtime.Version())
	for _, d := range defs {
		m, ok := rep.Metrics[d.Name]
		if !ok {
			panic("bench: metric " + d.Name + " was not measured")
		}
		line := fmt.Sprintf("  %-38s %14.6g %-6s", d.Name, m.Value, m.Unit)
		if len(m.runs) > 1 {
			line += fmt.Sprintf("  q1 %.6g  q3 %.6g  n %d", m.runs.q1(), m.runs.q3(), len(m.runs))
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d\n", rep.Attempted, rep.Failed)
	for _, p := range rep.problems {
		fmt.Println("  FAILED:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // a report holds only numbers and strings
	}
	fmt.Println(string(line))
}

// childReport runs one workload in a child process of this binary, so that
// heap and collector state are the workload's own, and parses the last line
// the child prints. The child's other output passes through.
func childReport(name string, traced bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "aa" && f.Name != "workload" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	rep := &report{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), rep); err != nil {
		return nil, fmt.Errorf("%s: child printed no result (%v)", name, runErr)
	}
	return rep, nil
}

// runSet runs every workload once and reports whether all were correct.
func runSet(traced bool) (map[string]*report, bool, error) {
	reports := map[string]*report{}
	ok := true
	for _, w := range workloads {
		rep, err := childReport(w.Name, traced)
		if err != nil {
			return nil, false, err
		}
		reports[w.Name] = rep
		ok = ok && rep.Correct
	}
	return reports, ok, nil
}
