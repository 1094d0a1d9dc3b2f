package benchjson

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: ccncoord
cpu: Intel(R) Xeon(R) CPU
BenchmarkSimRun/Coordinated/US-A-8         	      33	  34212000 ns/op	 6517000 B/op	  146151 allocs/op
BenchmarkSimRun/LRU/US-A-8                 	      20	  51000000 ns/op	12000000 B/op	  300000 allocs/op
BenchmarkSimulationThroughput              	      33	  34212000 ns/op	     20000 requests/op	 6517000 B/op	  146151 allocs/op
BenchmarkFig4-8                            	       5	 210000000 ns/op
PASS
ok  	ccncoord	12.3s
`

func TestParse(t *testing.T) {
	s, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if s.GoOS != "linux" || s.GoArch != "amd64" || s.Pkg != "ccncoord" {
		t.Errorf("bad header: %+v", s)
	}
	if len(s.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(s.Benchmarks))
	}
	r := s.Find("BenchmarkSimRun/Coordinated/US-A")
	if r == nil {
		t.Fatal("missing BenchmarkSimRun/Coordinated/US-A")
	}
	if r.Procs != 8 || r.Iterations != 33 {
		t.Errorf("procs=%d iters=%d, want 8/33", r.Procs, r.Iterations)
	}
	if r.NsPerOp != 34212000 || r.BytesPerOp != 6517000 || r.AllocsPerOp != 146151 {
		t.Errorf("bad metrics: %+v", r)
	}
	// Custom ReportMetric units land in Extra; a name without a -N
	// suffix defaults to procs=1.
	th := s.Find("BenchmarkSimulationThroughput")
	if th == nil || th.Procs != 1 {
		t.Fatalf("throughput record: %+v", th)
	}
	if th.Extra["requests/op"] != 20000 {
		t.Errorf("extra metrics: %+v", th.Extra)
	}
	// -benchmem off leaves B/op and allocs/op at zero.
	fig := s.Find("BenchmarkFig4")
	if fig == nil || fig.BytesPerOp != 0 || fig.AllocsPerOp != 0 {
		t.Errorf("fig4 record: %+v", fig)
	}
}

// TestParseSeveralPackages: a sweep concatenates one go test output per
// package; the first names the suite and later rows carry their own.
func TestParseSeveralPackages(t *testing.T) {
	s, err := Parse(strings.NewReader(sample + `goos: linux
pkg: ccncoord/internal/ccn
BenchmarkForwardHop-2   	20	2016572 ns/op	155.8 ns/hop	778 B/op	12 allocs/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Pkg != "ccncoord" {
		t.Errorf("suite pkg %q, want the first package", s.Pkg)
	}
	if r := s.Find("BenchmarkFig4"); r == nil || r.Pkg != "" {
		t.Errorf("first-package row: %+v", r)
	}
	if r := s.Find("BenchmarkForwardHop"); r == nil || r.Pkg != "ccncoord/internal/ccn" || r.Extra["ns/hop"] != 155.8 {
		t.Errorf("second-package row: %+v", r)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX",              // no iteration count
		"BenchmarkX notanumber",   // bad count
		"BenchmarkX 10 12.5",      // value without unit
		"BenchmarkX 10 abc ns/op", // bad value
		"BenchmarkX 10 1 ns/op 2", // trailing odd pair
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	s.Date = "2026-08-05"
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Date != s.Date || len(back.Benchmarks) != len(s.Benchmarks) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for i := range s.Benchmarks {
		if !reflect.DeepEqual(back.Benchmarks[i], s.Benchmarks[i]) {
			t.Errorf("record %d changed: %+v vs %+v", i, back.Benchmarks[i], s.Benchmarks[i])
		}
	}
	wantNames := []string{
		"BenchmarkFig4",
		"BenchmarkSimRun/Coordinated/US-A",
		"BenchmarkSimRun/LRU/US-A",
		"BenchmarkSimulationThroughput",
	}
	got := back.Names()
	if len(got) != len(wantNames) {
		t.Fatalf("names %v, want %v", got, wantNames)
	}
	for i := range wantNames {
		if got[i] != wantNames[i] {
			t.Errorf("name %d = %q, want %q", i, got[i], wantNames[i])
		}
	}
}
