// Command ccnexp regenerates the paper's evaluation artifacts: Tables
// I-IV and Figures 4-13, plus this repository's model-versus-simulation
// validation table.
//
// Usage:
//
//	ccnexp -list
//	ccnexp -run fig4            # one artifact to stdout (text)
//	ccnexp -run all -csv -out results/   # everything as CSV files
//	ccnexp -run modelvssim -requests 100000
//	ccnexp -run all -workers 8  # bound the worker pool explicitly
//
// Artifacts render concurrently on a bounded worker pool but always
// emit in a fixed order, so the output is byte-identical whatever
// -workers is set to.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"ccncoord/internal/experiments"
	"ccncoord/internal/obs"
	"ccncoord/internal/par"
	"ccncoord/internal/plot"
	"ccncoord/internal/prof"
	"ccncoord/internal/trace"
)

// artifact is one regenerable table or figure.
type artifact struct {
	id    string
	about string
	// exactly one of figure/table is set
	figure func() (experiments.Figure, error)
	table  func() (experiments.Table, error)
}

func artifacts(requests, replicas int) []artifact {
	return []artifact{
		{id: "table1", about: "motivating example comparison (packet-level)", table: experiments.TableI},
		{id: "table2", about: "topology statistics", table: func() (experiments.Table, error) { return experiments.TableII(), nil }},
		{id: "table3", about: "topological parameters", table: experiments.TableIII},
		{id: "table4", about: "figure parameter settings", table: func() (experiments.Table, error) { return experiments.TableIV(), nil }},
		{id: "fig4", about: "l* vs alpha (per gamma)", figure: experiments.Fig4},
		{id: "fig5", about: "l* vs Zipf exponent (per alpha)", figure: experiments.Fig5},
		{id: "fig6", about: "l* vs network size (per alpha)", figure: experiments.Fig6},
		{id: "fig7", about: "l* vs unit coordination cost (per alpha)", figure: experiments.Fig7},
		{id: "fig8", about: "G_O vs alpha (per gamma)", figure: experiments.Fig8},
		{id: "fig9", about: "G_O vs Zipf exponent (per alpha)", figure: experiments.Fig9},
		{id: "fig10", about: "G_O vs network size (per alpha)", figure: experiments.Fig10},
		{id: "fig11", about: "G_O vs unit coordination cost (per alpha)", figure: experiments.Fig11},
		{id: "fig12", about: "G_R vs alpha (per gamma)", figure: experiments.Fig12},
		{id: "fig13", about: "G_R vs Zipf exponent (per alpha)", figure: experiments.Fig13},
		{id: "modelvssim", about: "packet simulation vs analytical model", table: func() (experiments.Table, error) {
			return experiments.ModelVsSim(requests)
		}},
		{id: "ablation-assignment", about: "rank striping vs content hashing", table: func() (experiments.Table, error) {
			return experiments.AblationAssignment(requests)
		}},
		{id: "ablation-policy", about: "provisioned vs dynamic cache policies", table: func() (experiments.Table, error) {
			return experiments.AblationPolicy(requests)
		}},
		{id: "ablation-solver", about: "exact vs fixed-point vs closed-form solvers", table: experiments.AblationSolver},
		{id: "ablation-coordinator", about: "centralized vs tree-distributed coordination", table: experiments.AblationCoordinator},
		{id: "ablation-resilience", about: "coordinated placement under link failure", table: func() (experiments.Table, error) {
			return experiments.AblationResilience(requests)
		}},
		{id: "stability", about: "sensitive alpha range of l* per gamma", table: experiments.StabilityAnalysis},
		{id: "metric-variant", about: "hop-count vs latency tier-gap metrics", table: experiments.MetricVariant},
		{id: "measured-tiers", about: "d0/d1/d2 measured from the simulator and the l* they imply", table: func() (experiments.Table, error) {
			return experiments.MeasuredTiers(requests)
		}},
		{id: "ablation-loss", about: "coordinated placement on a lossy fabric", table: func() (experiments.Table, error) {
			return experiments.AblationLoss(requests)
		}},
		{id: "ablation-congestion", about: "offered load vs finite link capacity", table: func() (experiments.Table, error) {
			return experiments.AblationCongestion(requests)
		}},
		{id: "ablation-regional", about: "global placement under regional interest skew", table: func() (experiments.Table, error) {
			return experiments.AblationRegionalSkew(requests)
		}},
		{id: "ablation-replicas", about: "strategy comparison over seeded replicas (mean ± stderr)", table: func() (experiments.Table, error) {
			return experiments.AblationReplicas(requests, replicas)
		}},
		{id: "adaptive", about: "closed-loop adaptive provisioning over epochs", table: func() (experiments.Table, error) {
			return experiments.AdaptiveConvergence(requests, 4)
		}},
		{id: "adaptive-drift", about: "adaptive provisioning under popularity drift", table: func() (experiments.Table, error) {
			return experiments.AdaptiveDrift(requests, 4)
		}},
		{id: "validation-spans", about: "span-level per-rank-band behavior vs analytical bands", table: func() (experiments.Table, error) {
			return experiments.ValidationSpans(requests)
		}},
		{id: "chaos", about: "resilience under composed chaos scenarios (coordinator crash, partition, loss, cascade)", table: func() (experiments.Table, error) {
			return experiments.ChaosResilience(requests)
		}},
	}
}

func main() {
	var (
		list        = flag.Bool("list", false, "list artifact ids and exit")
		run         = flag.String("run", "all", "artifact id to regenerate, or 'all'")
		csvOut      = flag.Bool("csv", false, "emit CSV instead of aligned text")
		plotOut     = flag.Bool("plot", false, "render figures as ASCII charts instead of tables")
		outDir      = flag.String("out", "", "write each artifact to DIR/<id>.{txt,csv} instead of stdout")
		requests    = flag.Int("requests", 40000, "measured requests for the simulation-backed experiments")
		replicas    = flag.Int("replicas", 5, "seeded replicas for the ablation-replicas artifact")
		workers     = flag.Int("workers", 0, "worker-pool width for experiment generation; 0 = GOMAXPROCS, 1 = serial")
		shardsFlag  = flag.String("shards", "auto", "event-loop shards per simulation: auto (each scenario decides), 1 (serial), or N; artifacts are identical at any setting")
		httpAddr    = flag.String("http", "", "serve live run progress, metrics and pprof on this address (e.g. 127.0.0.1:8080)")
		tracePath   = flag.String("trace", "", "write a JSONL event trace of every simulation run to this file (.gz compresses)")
		traceSample = flag.Float64("trace-sample", 1, "trace sample rate in (0,1]: 0.01 keeps every 100th request lifecycle")
		manifest    = flag.String("manifest", "", "write an artifact manifest (ids, sizes, sha256 digests) to this file")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write an allocation heap profile to this file")
	)
	flag.Parse()
	experiments.SetWorkers(*workers)
	shards, err := parseShards(*shardsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccnexp:", err)
		os.Exit(1)
	}
	experiments.SetShards(shards)
	traceDone := func() error { return nil }
	if *tracePath != "" {
		tr, done, err := trace.OpenFile(*tracePath, *traceSample)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccnexp:", err)
			os.Exit(1)
		}
		experiments.SetTracer(tr)
		traceDone = done
	}
	var progress *obs.Progress
	var health *obs.Health
	obsDone := func() error { return nil }
	fail := func(err error) {
		if health != nil {
			health.Fail(err.Error())
		}
		fmt.Fprintln(os.Stderr, "ccnexp:", err)
		os.Exit(1)
	}
	if *httpAddr != "" {
		progress = obs.NewProgress()
		health = obs.NewHealth()
		experiments.SetProgress(progress)
		addr, shutdown, err := obs.Start(*httpAddr, obs.NewMux(progress, health))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccnexp:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ccnexp: serving metrics on http://%s/metrics\n", addr)
		health.Ready()
		obsDone = func() error {
			health.Draining("run complete")
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			return shutdown(ctx)
		}
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccnexp:", err)
		os.Exit(1)
	}

	arts := artifacts(*requests, *replicas)
	if *list {
		for _, a := range arts {
			fmt.Printf("%-20s %s\n", a.id, a.about)
		}
		return
	}
	mode := modeText
	switch {
	case *csvOut && *plotOut:
		fmt.Fprintln(os.Stderr, "ccnexp: -csv and -plot are mutually exclusive")
		os.Exit(1)
	case *csvOut:
		mode = modeCSV
	case *plotOut:
		mode = modePlot
	}
	err = runArtifacts(arts, *run, mode, *outDir, *manifest, progress)
	for _, reason := range experiments.ShardFallbacks() {
		fmt.Fprintf(os.Stderr, "ccnexp: warning: -shards %d falls back to the serial engine for some scenarios (%s)\n", shards, reason)
	}
	if err != nil {
		fail(err)
	}
	if err := traceDone(); err != nil {
		fail(err)
	}
	if err := obsDone(); err != nil {
		fail(err)
	}
	if err := stopProf(); err != nil {
		fail(err)
	}
}

// outputMode selects the rendering of artifacts.
type outputMode int

const (
	modeText outputMode = iota
	modeCSV
	modePlot
)

// artifactManifest digests one ccnexp invocation: which artifacts were
// rendered, in what mode, and the exact bytes each produced. It
// deliberately excludes schedule-dependent values (the -workers width,
// trace sampling counts), so the manifest of a given selection is
// byte-identical however the pool is sized.
type artifactManifest struct {
	Schema    string           `json:"schema"`
	Run       string           `json:"run"`
	Mode      string           `json:"mode"`
	Artifacts []artifactDigest `json:"artifacts"`
}

// artifactDigest is one artifact's rendered size and content hash.
type artifactDigest struct {
	ID     string `json:"id"`
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// artifactManifestSchema identifies the artifact-manifest JSON layout.
const artifactManifestSchema = "ccncoord/artifact-manifest/v1"

// parseShards parses a -shards flag value: "auto" (0 — each scenario's
// auto rule decides) or an explicit positive shard count applied to
// every simulation.
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

func (m outputMode) String() string {
	switch m {
	case modeCSV:
		return "csv"
	case modePlot:
		return "plot"
	default:
		return "text"
	}
}

// writeArtifactManifest digests the rendered artifacts to path.
func writeArtifactManifest(path, run string, mode outputMode, selected []artifact, rendered [][]byte) error {
	m := artifactManifest{
		Schema:    artifactManifestSchema,
		Run:       run,
		Mode:      mode.String(),
		Artifacts: make([]artifactDigest, len(selected)),
	}
	for i, a := range selected {
		sum := sha256.Sum256(rendered[i])
		m.Artifacts[i] = artifactDigest{
			ID:     a.id,
			Bytes:  len(rendered[i]),
			SHA256: hex.EncodeToString(sum[:]),
		}
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("marshaling artifact manifest: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func runArtifacts(arts []artifact, id string, mode outputMode, outDir, manifestPath string, progress *obs.Progress) error {
	var selected []artifact
	for _, a := range arts {
		if id == "all" || a.id == id {
			selected = append(selected, a)
		}
	}
	if len(selected) == 0 {
		ids := make([]string, len(arts))
		for i, a := range arts {
			ids[i] = a.id
		}
		sort.Strings(ids)
		return fmt.Errorf("unknown artifact %q (have %v)", id, ids)
	}
	if progress != nil {
		progress.SetArtifactsTotal(len(selected))
	}
	// Render every artifact concurrently, then emit sequentially in
	// selection order: the bytes on stdout or disk never depend on the
	// pool width or completion order.
	rendered, err := par.Map(experiments.Workers(), len(selected), func(i int) ([]byte, error) {
		var buf bytes.Buffer
		if err := emit(&buf, selected[i], mode); err != nil {
			return nil, fmt.Errorf("%s: %w", selected[i].id, err)
		}
		if progress != nil {
			progress.ArtifactDone()
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		return err
	}
	if manifestPath != "" {
		if err := writeArtifactManifest(manifestPath, id, mode, selected, rendered); err != nil {
			return err
		}
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	for i, a := range selected {
		if outDir == "" {
			if _, err := os.Stdout.Write(rendered[i]); err != nil {
				return err
			}
			fmt.Println()
			continue
		}
		ext := ".txt"
		if mode == modeCSV {
			ext = ".csv"
		}
		if err := os.WriteFile(filepath.Join(outDir, a.id+ext), rendered[i], 0o644); err != nil {
			return err
		}
	}
	return nil
}

func emit(w io.Writer, a artifact, mode outputMode) error {
	if a.figure != nil {
		f, err := a.figure()
		if err != nil {
			return err
		}
		switch mode {
		case modeCSV:
			return experiments.WriteFigureCSV(w, f)
		case modePlot:
			series := make([]plot.Series, len(f.Series))
			for i, s := range f.Series {
				series[i] = plot.Series{Label: s.Label, X: s.X, Y: s.Y}
			}
			return plot.Render(w, plot.Chart{
				Title:  fmt.Sprintf("%s: %s", f.ID, f.Title),
				XLabel: f.XLabel, YLabel: f.YLabel,
				Series: series,
			})
		default:
			return experiments.WriteFigureText(w, f)
		}
	}
	t, err := a.table()
	if err != nil {
		return err
	}
	if mode == modeCSV {
		return experiments.WriteTableCSV(w, t)
	}
	return experiments.WriteTableText(w, t)
}
