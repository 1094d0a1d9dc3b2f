package coord

import (
	"math/rand"
	"slices"
	"testing"

	"ccncoord/internal/catalog"
	"ccncoord/internal/topology"
	"ccncoord/internal/workload"
)

// refTally is the accounting the daemon kept before the log: one count
// map per router.
type refTally []map[catalog.ID]int64

func (r refTally) totals() (map[catalog.ID]int64, int64, int64) {
	totals := make(map[catalog.ID]int64)
	var reported, maxReport int64
	for _, m := range r {
		for id, c := range m {
			totals[id] += c
		}
		reported += int64(len(m))
		maxReport = max(maxReport, int64(len(m)))
	}
	return totals, reported, maxReport
}

// TestTallyFoldMatchesMaps is the tally differential: seeded logs
// folded by the counting sort against per-router maps — equal totals,
// equal report cardinalities — on one tally reused across epochs, with
// a router that never observes anything, and with an empty log.
func TestTallyFoldMatchesMaps(t *testing.T) {
	const (
		nRouters = 7
		catalogN = 300
		silent   = 3 // never observes
	)
	tally, err := NewTally(nRouters, catalogN)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for epoch := 0; epoch < 50; epoch++ {
		ref := make(refTally, nRouters)
		for i := range ref {
			ref[i] = make(map[catalog.ID]int64)
		}
		length := 0
		if epoch%10 != 9 { // every tenth epoch folds an empty log
			length = rng.Intn(4000)
		}
		for i := 0; i < length; i++ {
			r := rng.Intn(nRouters)
			if r == silent {
				continue
			}
			// Squaring skews towards low ids so that ties and repeats
			// are both plentiful.
			u := rng.Float64()
			id := catalog.ID(1 + int(u*u*catalogN))
			tally.Observe(topology.NodeID(r), id)
			ref[r][id]++
		}
		wantTotals, wantReported, wantMax := ref.totals()

		f := tally.Fold()
		if tally.Len() != 0 {
			t.Fatalf("epoch %d: log holds %d observations after Fold", epoch, tally.Len())
		}
		got := make(map[catalog.ID]int64, len(f.Counts))
		for _, c := range f.Counts {
			if _, dup := got[c.ID]; dup {
				t.Fatalf("epoch %d: content %d folded twice", epoch, c.ID)
			}
			got[c.ID] = c.N
		}
		if len(got) != len(wantTotals) {
			t.Fatalf("epoch %d: %d contents folded, want %d", epoch, len(got), len(wantTotals))
		}
		for id, want := range wantTotals {
			if got[id] != want {
				t.Fatalf("epoch %d: content %d total %d, want %d", epoch, id, got[id], want)
			}
		}
		if f.Reported != wantReported || f.MaxReport != wantMax {
			t.Fatalf("epoch %d: report cardinalities (sum %d, max %d), want (%d, %d)",
				epoch, f.Reported, f.MaxReport, wantReported, wantMax)
		}
	}
}

func TestNewTallyErrors(t *testing.T) {
	for _, c := range []struct {
		routers int
		catalog int64
	}{{0, 10}, {-1, 10}, {3, 0}, {3, 1 << 31}, {1 << 31, 10}} {
		if _, err := NewTally(c.routers, c.catalog); err == nil {
			t.Errorf("NewTally(%d, %d) succeeded", c.routers, c.catalog)
		}
	}
}

// daemonEpoch is one coordination epoch of the shape ccnd runs by
// default: US-A's 20 routers, N = 20 000, Zipf 0.8, 50 000 requests,
// c = 150 split 75/75.
type daemonEpoch struct {
	routers []topology.NodeID
	at      []topology.NodeID // request i arrived at router at[i] ...
	content []catalog.ID      // ... for content[i]
}

const (
	epochRouters  = 20
	epochCatalog  = 20000
	epochRequests = 50000
	epochLocal    = 75
	epochCoord    = 75
)

func newDaemonEpoch(tb testing.TB) daemonEpoch {
	tb.Helper()
	gen, err := workload.NewZipf(0.8, epochCatalog, 1)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	e := daemonEpoch{
		routers: routers(epochRouters),
		at:      make([]topology.NodeID, epochRequests),
		content: make([]catalog.ID, epochRequests),
	}
	for i := range e.at {
		e.at[i] = topology.NodeID(rng.Intn(epochRouters))
		e.content[i] = gen.Next()
	}
	return e
}

func (e daemonEpoch) reports() []Report {
	reports := make([]Report, len(e.routers))
	for i, r := range e.routers {
		reports[i] = Report{Router: r, Counts: make(map[catalog.ID]int64)}
	}
	for i, r := range e.at {
		reports[r].Counts[e.content[i]]++
	}
	return reports
}

// TestRunEpochFrontEndsAgree drives the two entries of the epoch — map
// reports and a folded tally — with one daemon-shaped epoch and expects
// one placement.
func TestRunEpochFrontEndsAgree(t *testing.T) {
	e := newDaemonEpoch(t)
	c, err := NewCentralized(e.routers, 10)
	if err != nil {
		t.Fatal(err)
	}
	fromReports, costReports, err := c.RunEpoch(e.reports(), epochLocal, epochCoord)
	if err != nil {
		t.Fatal(err)
	}
	tally, err := NewTally(epochRouters, epochCatalog)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range e.at {
		tally.Observe(r, e.content[i])
	}
	fromTally, costTally, err := c.RunEpochCounts(tally.Fold().Counts, epochLocal, epochCoord)
	if err != nil {
		t.Fatal(err)
	}
	if costReports != costTally {
		t.Errorf("cost %+v from reports, %+v from the tally", costReports, costTally)
	}
	if !slices.Equal(fromReports.LocalSet, fromTally.LocalSet) {
		t.Error("local sets differ between the report and tally front-ends")
	}
	for _, r := range e.routers {
		if !slices.Equal(fromReports.Assignment.Contents(r), fromTally.Assignment.Contents(r)) {
			t.Errorf("router %d: assignments differ between the report and tally front-ends", r)
		}
	}
}

// BenchmarkRunEpoch times one daemon-shaped coordination epoch through
// both front-ends. "reports" aggregates per-router count maps (the
// public API, sim, experiments); "tally" replays the request log and
// folds it (ccnd) — the append cost the daemon pays per request is
// inside the timed region.
func BenchmarkRunEpoch(b *testing.B) {
	e := newDaemonEpoch(b)
	c, err := NewCentralized(e.routers, 10)
	if err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/epoch")
	}
	b.Run("reports", func(b *testing.B) {
		reports := e.reports()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.RunEpoch(reports, epochLocal, epochCoord); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("tally", func(b *testing.B) {
		tally, err := NewTally(epochRouters, epochCatalog)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, r := range e.at {
				tally.Observe(r, e.content[j])
			}
			if _, _, err := c.RunEpochCounts(tally.Fold().Counts, epochLocal, epochCoord); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
}
