// Package benchjson converts `go test -bench` output into a stable JSON
// document, so benchmark baselines can be committed (BENCH_<date>.json)
// and diffed across changes. It parses the standard benchmark line
// format — name, iteration count, then value/unit pairs such as ns/op,
// B/op and allocs/op — plus the goos/goarch/pkg/cpu header lines.
package benchjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark measurement.
type Record struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped
	// (e.g. "BenchmarkSimRun/Coordinated/US-A").
	Name string `json:"name"`
	// Pkg is the package the benchmark lives in — its layer — when that
	// is not the suite's own Pkg; a sweep over several packages tags the
	// rows of all but the first.
	Pkg string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS suffix of the benchmark line (1 if absent).
	Procs int `json:"procs"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the standard -benchmem
	// metrics. BytesPerOp/AllocsPerOp are zero when -benchmem was off.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra holds any further value/unit pairs (e.g. b.ReportMetric
	// custom units such as "requests/op"), keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Suite is a full benchmark run: environment header plus one record per
// benchmark line.
type Suite struct {
	Date       string   `json:"date,omitempty"` // YYYY-MM-DD, set by the caller
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

// Names returns the benchmark names in the suite, sorted.
func (s *Suite) Names() []string {
	names := make([]string, len(s.Benchmarks))
	for i, r := range s.Benchmarks {
		names[i] = r.Name
	}
	sort.Strings(names)
	return names
}

// Find returns the record with the given name, or nil.
func (s *Suite) Find(name string) *Record {
	for i := range s.Benchmarks {
		if s.Benchmarks[i].Name == name {
			return &s.Benchmarks[i]
		}
	}
	return nil
}

// Parse reads `go test -bench` output, of one package or of several in
// sequence: the first pkg header names the suite, and records that
// follow a later one carry it themselves. Unrecognized lines (PASS, ok,
// test logs) are ignored; malformed Benchmark lines are an error.
func Parse(r io.Reader) (*Suite, error) {
	s := &Suite{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			s.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			s.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			if s.Pkg == "" {
				s.Pkg = pkg
			}
		case strings.HasPrefix(line, "cpu:"):
			s.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			rec, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			if pkg != s.Pkg {
				rec.Pkg = pkg
			}
			s.Benchmarks = append(s.Benchmarks, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchjson: reading input: %w", err)
	}
	return s, nil
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName-8   33   34000000 ns/op   650000 B/op   1460 allocs/op
func parseLine(line string) (Record, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Record{}, fmt.Errorf("benchjson: short benchmark line %q", line)
	}
	rec := Record{Name: fields[0], Procs: 1}
	// Split the trailing -N GOMAXPROCS suffix off the name. Benchmark
	// names may themselves contain dashes, so only a trailing -<digits>
	// counts.
	if i := strings.LastIndex(rec.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(rec.Name[i+1:]); err == nil {
			rec.Name, rec.Procs = rec.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("benchjson: bad iteration count in %q: %w", line, err)
	}
	rec.Iterations = iters
	// The rest are value/unit pairs.
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Record{}, fmt.Errorf("benchjson: odd value/unit pairs in %q", line)
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Record{}, fmt.Errorf("benchjson: bad value %q in %q: %w", rest[i], line, err)
		}
		switch unit := rest[i+1]; unit {
		case "ns/op":
			rec.NsPerOp = v
		case "B/op":
			rec.BytesPerOp = v
		case "allocs/op":
			rec.AllocsPerOp = v
		default:
			if rec.Extra == nil {
				rec.Extra = map[string]float64{}
			}
			rec.Extra[unit] = v
		}
	}
	return rec, nil
}

// Write marshals the suite as indented JSON with a trailing newline.
func Write(w io.Writer, s *Suite) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("benchjson: encoding: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("benchjson: writing: %w", err)
	}
	return nil
}

// Read parses a JSON document produced by Write.
func Read(r io.Reader) (*Suite, error) {
	var s Suite
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("benchjson: decoding: %w", err)
	}
	return &s, nil
}
