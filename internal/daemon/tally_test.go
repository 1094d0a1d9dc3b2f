package daemon

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ccncoord/internal/cache"
	"ccncoord/internal/catalog"
	"ccncoord/internal/ccn"
	"ccncoord/internal/coord"
	"ccncoord/internal/timeline"
	"ccncoord/internal/topology"
)

// reportModel is the accounting the daemon kept before the tally: a
// count map per router since the last re-plan plus a cumulative map,
// handed to coord.RunEpoch as reports.
type reportModel struct {
	epoch  []map[catalog.ID]int64
	cum    map[catalog.ID]int64
	since  int64
	epochN int64
	asg    *coord.Assignment
	local  []catalog.ID
}

func (m *reportModel) resetEpoch() {
	for i := range m.epoch {
		m.epoch[i] = make(map[catalog.ID]int64)
	}
	m.since = 0
}

func (m *reportModel) observe(r ccn.RequestResult) {
	m.since++
	if r.Failed {
		return
	}
	m.cum[r.Content]++
	m.epoch[r.Router][r.Content]++
}

func (m *reportModel) checkpointBytes(t *testing.T, dir string) []byte {
	t.Helper()
	path := filepath.Join(dir, "model.json")
	err := coord.SaveCheckpoint(path, &coord.Checkpoint{
		Epoch:     m.epochN,
		Placement: &coord.Placement{LocalSet: m.local, Assignment: m.asg},
		Stats:     m.cum,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplanMatchesReportModel is the daemon-level equivalence: the
// tally-fed epochs must install the placements, append the timeline
// records and write the checkpoint bytes that coord.RunEpoch yields on
// map reports rebuilt from the very same completions.
func TestReplanMatchesReportModel(t *testing.T) {
	cfg := testConfig(t) // Ring(4,10), N=500, c=20, x=10, EpochRequests=300
	dir := t.TempDir()
	cfg.CheckpointPath = filepath.Join(dir, "ckpt.json")
	d, err := New(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Topology.N()
	localSlots := cfg.Capacity - cfg.Coordinated

	// The model starts from the placement provision() installs.
	m := &reportModel{epoch: make([]map[catalog.ID]int64, n), cum: make(map[catalog.ID]int64)}
	m.resetEpoch()
	m.local = cache.RankRange(1, localSlots)
	m.asg, err = coord.StripeByRank(d.routers, cache.RankRange(localSlots+1, localSlots+int64(n)*cfg.Coordinated), cfg.Coordinated)
	if err != nil {
		t.Fatal(err)
	}
	central, err := coord.NewCentralized(d.routers, d.coordinator.UnitCost())
	if err != nil {
		t.Fatal(err)
	}

	// Drive the engine on this goroutine (the daemon is never started)
	// and tap every completion on its way into onComplete.
	d.cursor.done = func(r ccn.RequestResult) {
		m.observe(r)
		d.onComplete(r)
	}
	var want []timeline.EpochRecord
	for seq, b := range []batch{
		{count: 350, router: -1}, {count: 120, router: 2}, {count: 250, router: -1},
		{count: 310, router: 0}, {count: 40, router: -1}, {count: 400, router: 3}, {count: 90, router: -1},
	} {
		b.seq, b.params = uint64(seq+1), d.cfg.Workload
		d.runBatch(d.prepare(b))
		if state, reason := d.State(); state == StateFailed {
			t.Fatalf("batch %d failed the daemon: %s", b.seq, reason)
		}
		if m.since < cfg.EpochRequests {
			if d.epoch != m.epochN {
				t.Fatalf("batch %d: daemon re-planned to epoch %d with %d of %d requests", b.seq, d.epoch, m.since, cfg.EpochRequests)
			}
			continue
		}
		reports := make([]coord.Report, n)
		var reported, maxReport int64
		for i, r := range d.routers {
			reports[i] = coord.Report{Router: r, Counts: m.epoch[i]}
			reported += int64(len(m.epoch[i]))
			maxReport = max(maxReport, int64(len(m.epoch[i])))
		}
		p, cost, err := central.RunEpoch(reports, localSlots, cfg.Coordinated)
		if err != nil {
			t.Fatal(err)
		}
		m.epochN++
		want = append(want, timeline.EpochRecord{
			Epoch:            m.epochN,
			SimTimeMs:        d.eng.Now(),
			Requests:         m.since,
			Messages:         cost.Total(),
			MessagesUp:       cost.MessagesUp,
			MessagesDown:     cost.MessagesDown,
			BoundMessages:    2 * int64(n) * cfg.Coordinated,
			UnitCostMs:       central.UnitCost(),
			BoundCostMs:      central.UnitCost() * float64(n) * float64(cfg.Coordinated),
			ConvergenceMs:    cost.Convergence,
			LocalSlots:       localSlots,
			CoordSlots:       cfg.Coordinated,
			Level:            float64(cfg.Coordinated) / float64(cfg.Capacity),
			Churn:            coord.Churn(m.asg, p.Assignment),
			ReportedContents: reported,
			MaxReport:        maxReport,
		})
		m.asg, m.local = p.Assignment, p.LocalSet
		m.resetEpoch()

		if d.epoch != m.epochN {
			t.Fatalf("batch %d: daemon at epoch %d, model at %d", b.seq, d.epoch, m.epochN)
		}
		if !slices.Equal(d.localSet, m.local) {
			t.Fatalf("epoch %d: live local set diverges from the report model", m.epochN)
		}
		for _, r := range d.routers {
			if !slices.Equal(d.coordAsg.Contents(r), m.asg.Contents(r)) {
				t.Fatalf("epoch %d: router %d's live assignment diverges from the report model", m.epochN, r)
			}
		}
		got, err := os.ReadFile(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, m.checkpointBytes(t, dir)) {
			t.Fatalf("epoch %d: checkpoint bytes diverge from the report model", m.epochN)
		}
	}
	if len(want) < 3 {
		t.Fatalf("only %d epochs driven, want at least 3", len(want))
	}
	if m.since == 0 {
		t.Fatal("the run ended on an epoch boundary; the drain checkpoint would not cover a partial epoch")
	}

	got := d.Timeline().Snapshot().Records
	for i := range got {
		got[i].WallMs = 0
	}
	if !slices.Equal(got, want) {
		t.Errorf("timeline diverges from the report model:\n got %+v\nwant %+v", got, want)
	}

	// The drain checkpoint folds the partial epoch into the sketch.
	d.finish()
	final, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final, m.checkpointBytes(t, dir)) {
		t.Error("drain checkpoint bytes diverge from the report model")
	}
}

// TestOnCompleteSteadyStateAllocs pins per-request accounting to one
// slice append: once the log has reached its epoch's size, a completion
// allocates nothing.
func TestOnCompleteSteadyStateAllocs(t *testing.T) {
	cfg := testConfig(t)
	cfg.EpochRequests = 5000
	d, err := New(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := ccn.RequestResult{Content: 17, Router: 1, ServedBy: ccn.ServedPeer, Hops: 1, CompletedAt: 12}
	for i := 0; i < 5000; i++ {
		d.onComplete(r)
	}
	d.fold()
	if allocs := testing.AllocsPerRun(1000, func() { d.onComplete(r) }); allocs != 0 {
		t.Errorf("onComplete allocates %v times per request in steady state, want 0", allocs)
	}
}

// TestTallyBoundedWithoutReplanning covers a daemon with re-planning
// off, where no epoch ever drains the tally: the log must stay within
// one fold chunk, and the drain checkpoint must still count every
// completion.
func TestTallyBoundedWithoutReplanning(t *testing.T) {
	cfg := testConfig(t)
	cfg.EpochRequests = -1
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
	d, err := New(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Topology.N()
	const completions = 10*foldChunk + 123
	longest := 0
	for i := 0; i < completions; i++ {
		d.onComplete(ccn.RequestResult{
			Content:  catalog.ID(1 + i%int(cfg.CatalogSize)),
			Router:   topology.NodeID(i % n),
			ServedBy: ccn.ServedOrigin,
		})
		longest = max(longest, d.tally.Len())
	}
	if longest > foldChunk {
		t.Errorf("the log grew to %d observations, beyond one chunk of %d", longest, foldChunk)
	}
	d.finish()
	if state, reason := d.State(); state != StateStopped {
		t.Fatalf("state after finish = %v (%s), want stopped", state, reason)
	}
	cp, err := coord.LoadCheckpoint(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, c := range cp.Stats {
		sum += c
	}
	if sum != d.eCompleted || sum != completions {
		t.Errorf("drain checkpoint counts %d requests, daemon completed %d of %d", sum, d.eCompleted, completions)
	}
	if cp.Epoch != 0 {
		t.Errorf("checkpoint epoch = %d with re-planning off, want 0", cp.Epoch)
	}
}

// TestRestoreRejectsForeignCatalog hand-edits a drained daemon's
// checkpoint to count a content the catalog does not have; the dense
// counts could not hold it, so New must refuse, naming file and id.
func TestRestoreRejectsForeignCatalog(t *testing.T) {
	cfg := testConfig(t) // CatalogSize 500
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
	d := mustStart(t, cfg, nil)
	submit(t, d, 400, -1)
	if err := d.Drain(""); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cp, err := coord.LoadCheckpoint(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	cp.Stats[501] = 3
	if err := coord.SaveCheckpoint(cfg.CheckpointPath, cp); err != nil {
		t.Fatal(err)
	}
	_, err = New(cfg, nil, nil)
	if err == nil || !strings.Contains(err.Error(), cfg.CheckpointPath) || !strings.Contains(err.Error(), "content 501") {
		t.Errorf("restoring a checkpoint that counts content 501 of 500: err = %v, want a rejection naming the file and the id", err)
	}
}
