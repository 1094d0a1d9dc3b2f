// Command ccnbench runs the repository's benchmark suite and records
// the results as a committed baseline file BENCH_<date>.json, so
// simulator and experiment-harness performance can be diffed across
// changes.
//
// Usage (from the module root):
//
//	ccnbench                          # full suite, BENCH_<today>.json
//	ccnbench -bench 'SimRun' -benchtime 5x
//	ccnbench -out results/ -date 2026-08-05
//	ccnbench -pkg '. ./internal/ccn@20x ./internal/cache@1000000x ./internal/coord@50x'
//	ccnbench -diff BENCH_2026-08-05.json BENCH_2026-09-01.json
//	ccnbench -diff old-manifest.json new-manifest.json
//
// The command shells out to `go test`, parses the benchmark output with
// internal/benchjson, and writes the JSON next to (or at) -out; the
// records carry ns/op, B/op and allocs/op per benchmark. The -diff mode
// compares any two JSON documents leaf by leaf — bench baselines align
// by benchmark name, and run/artifact manifests (ccnsim/ccnexp
// -manifest) diff the same way.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"ccncoord/internal/benchjson"
)

func main() {
	var (
		bench     = flag.String("bench", ".", "benchmark selector passed to go test -bench")
		benchtime = flag.String("benchtime", "1x", "go test -benchtime value (e.g. 1x, 5x, 2s)")
		pkg       = flag.String("pkg", ".", "space-separated packages to benchmark into one file; pkg@benchtime overrides -benchtime for that package")
		out       = flag.String("out", "", "output directory or file; default BENCH_<date>.json in the current directory")
		date      = flag.String("date", "", "date stamp for the baseline, YYYY-MM-DD; default today")
		diff      = flag.Bool("diff", false, "diff two JSON files (bench baselines or manifests): ccnbench -diff old.json new.json")
		tol       = flag.Float64("tol", 0, "relative tolerance for -diff numeric leaves: 0.05 treats values within 5% as equal (default exact)")
	)
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "ccnbench: -diff needs exactly two files")
			os.Exit(1)
		}
		if *tol < 0 {
			fmt.Fprintln(os.Stderr, "ccnbench: -tol must be non-negative")
			os.Exit(1)
		}
		if err := runDiff(os.Stdout, flag.Arg(0), flag.Arg(1), *tol); err != nil {
			fmt.Fprintln(os.Stderr, "ccnbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*bench, *benchtime, *pkg, *out, *date); err != nil {
		fmt.Fprintln(os.Stderr, "ccnbench:", err)
		os.Exit(1)
	}
}

func run(bench, benchtime, pkg, out, date string) error {
	if date == "" {
		date = time.Now().Format("2006-01-02")
	}
	path := fmt.Sprintf("BENCH_%s.json", date)
	if out != "" {
		if info, err := os.Stat(out); err == nil && info.IsDir() {
			path = filepath.Join(out, path)
		} else {
			path = out
		}
	}

	// One go test per package, so whole-artifact benchmarks can run once
	// while per-layer micro-benchmarks run long enough to mean something.
	var outBuf bytes.Buffer
	for _, p := range strings.Fields(pkg) {
		p, bt, ok := strings.Cut(p, "@")
		if !ok {
			bt = benchtime
		}
		args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem", "-benchtime", bt, p}
		fmt.Fprintln(os.Stderr, "ccnbench: go", argsString(args))
		cmd := exec.Command("go", args...)
		cmd.Stdout = &outBuf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			// Surface the captured output: it usually holds the failure.
			os.Stderr.Write(outBuf.Bytes())
			return fmt.Errorf("go test: %w", err)
		}
	}

	suite, err := benchjson.Parse(&outBuf)
	if err != nil {
		return err
	}
	if len(suite.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks matched -bench %q in %s", bench, pkg)
	}
	suite.Date = date

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := benchjson.Write(f, suite); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(suite.Benchmarks))
	for _, r := range suite.Benchmarks {
		fmt.Printf("  %-50s %14.0f ns/op %12.0f B/op %10.0f allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	return nil
}

// argsString joins args for the progress line.
func argsString(args []string) string {
	var buf bytes.Buffer
	for i, a := range args {
		if i > 0 {
			buf.WriteByte(' ')
		}
		buf.WriteString(a)
	}
	return buf.String()
}
