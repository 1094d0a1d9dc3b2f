package des

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// ringTrace runs a deterministic token cascade on a ring of nodes
// mapped onto the given engine: each event at node i appends (node,
// time) to that node's log and schedules the next event at node i+1
// after that hop's latency. Per-node logs are totally ordered by
// virtual time, so they must be identical on every engine that
// respects timestamps — serial or sharded, any shard count.
type ringTrace struct {
	logs [][]float64
}

const ringNodes = 16

// ringLatency is the hop latency leaving node i: distinct per hop, all
// at least 1.0 so a lookahead of 1.0 satisfies the conservative
// contract for any partition of the ring.
func ringLatency(i int) float64 { return 1.0 + float64(i)*0.125 }

func (rt *ringTrace) runSerial(tokens int) {
	rt.logs = make([][]float64, ringNodes)
	var e Engine
	var visit func(node int, hops int) func()
	visit = func(node, hops int) func() {
		return func() {
			rt.logs[node] = append(rt.logs[node], e.Now())
			if hops == 0 {
				return
			}
			next := (node + 1) % ringNodes
			if err := e.Schedule(ringLatency(node), visit(next, hops-1)); err != nil {
				panic(err)
			}
		}
	}
	for tok := 0; tok < tokens; tok++ {
		start := tok % ringNodes
		if err := e.At(float64(tok)*0.375, visit(start, 40)); err != nil {
			panic(err)
		}
	}
	e.Run()
}

func (rt *ringTrace) runSharded(shards, tokens int) *Sharded {
	rt.logs = make([][]float64, ringNodes)
	s, err := NewSharded(shards, 1.0)
	if err != nil {
		panic(err)
	}
	shardOf := func(node int) int { return node * shards / ringNodes }
	var visit func(node int, hops int) func()
	visit = func(node, hops int) func() {
		return func() {
			sh := s.Shard(shardOf(node))
			rt.logs[node] = append(rt.logs[node], sh.Now())
			if hops == 0 {
				return
			}
			next := (node + 1) % ringNodes
			if err := sh.ScheduleTo(shardOf(next), ringLatency(node), visit(next, hops-1)); err != nil {
				panic(err)
			}
		}
	}
	for tok := 0; tok < tokens; tok++ {
		start := tok % ringNodes
		if err := s.Shard(shardOf(start)).At(float64(tok)*0.375, visit(start, 40)); err != nil {
			panic(err)
		}
	}
	s.Run()
	return s
}

// TestShardedMatchesSerial pins that per-node event timelines are
// identical between the serial engine and sharded runs at several
// shard counts: sharding changes where events execute, not what the
// simulation computes.
func TestShardedMatchesSerial(t *testing.T) {
	const tokens = 24
	var serial ringTrace
	serial.runSerial(tokens)
	for _, shards := range []int{1, 2, 4, 8} {
		var sharded ringTrace
		s := sharded.runSharded(shards, tokens)
		if !reflect.DeepEqual(serial.logs, sharded.logs) {
			t.Errorf("shards=%d: per-node timelines diverge from serial", shards)
		}
		if s.Pending() != 0 {
			t.Errorf("shards=%d: %d events still pending after Run", shards, s.Pending())
		}
	}
}

// TestShardedDeterminism pins that two identical sharded runs produce
// identical traces and identical gauge values — execution order is a
// pure function of the workload, not goroutine scheduling.
func TestShardedDeterminism(t *testing.T) {
	const tokens = 24
	var a, b ringTrace
	sa := a.runSharded(4, tokens)
	sb := b.runSharded(4, tokens)
	if !reflect.DeepEqual(a.logs, b.logs) {
		t.Error("two identical 4-shard runs produced different traces")
	}
	if sa.Processed() != sb.Processed() || sa.PendingPeak() != sb.PendingPeak() || sa.CrossShardEvents() != sb.CrossShardEvents() {
		t.Errorf("gauges diverge across identical runs: (%d,%d,%d) vs (%d,%d,%d)",
			sa.Processed(), sa.PendingPeak(), sa.CrossShardEvents(),
			sb.Processed(), sb.PendingPeak(), sb.CrossShardEvents())
	}
}

// TestShardedGauges is the accounting regression for sharding:
// Processed and Pending aggregate across shards and match the serial
// engine's totals for the same workload, so the manifest's engine
// gauges stay meaningful whatever the shard count.
func TestShardedGauges(t *testing.T) {
	const tokens = 24
	// Every token fires 41 events (the seed visit plus 40 hops), on the
	// serial engine and on every shard count alike.
	wantProcessed := uint64(tokens * 41)

	for _, shards := range []int{2, 4} {
		var tr ringTrace
		s := tr.runSharded(shards, tokens)
		if got := s.Processed(); got != wantProcessed {
			t.Errorf("shards=%d: Processed() = %d, want %d (same event set as serial)", shards, got, wantProcessed)
		}
		if got := s.Pending(); got != 0 {
			t.Errorf("shards=%d: Pending() = %d after drain, want 0", shards, got)
		}
		if s.PendingPeak() <= 0 {
			t.Errorf("shards=%d: PendingPeak() = %d, want > 0", shards, s.PendingPeak())
		}
		if s.CrossShardEvents() == 0 {
			t.Errorf("shards=%d: ring workload crossed no shard boundary", shards)
		}
		var sumShard uint64
		for i := 0; i < s.Shards(); i++ {
			sumShard += s.Shard(i).Processed()
		}
		if sumShard != s.Processed() {
			t.Errorf("shards=%d: per-shard processed sums to %d, aggregate says %d", shards, sumShard, s.Processed())
		}
	}
}

func TestShardedErrors(t *testing.T) {
	if _, err := NewSharded(0, 1); err == nil {
		t.Error("shard count 0 should fail")
	}
	if _, err := NewSharded(2, 0); err == nil {
		t.Error("zero lookahead with >1 shard should fail")
	}
	if _, err := NewSharded(2, math.NaN()); err == nil {
		t.Error("NaN lookahead should fail")
	}
	if _, err := NewSharded(1, 0); err != nil {
		t.Errorf("single shard needs no lookahead: %v", err)
	}
	s, err := NewSharded(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	sh := s.Shard(0)
	noop := func() {}
	if err := sh.ScheduleTo(1, 0.5, noop); err == nil {
		t.Error("cross-shard delay below lookahead should fail")
	}
	if err := sh.ScheduleTo(2, 1.0, noop); err == nil {
		t.Error("out-of-range destination shard should fail")
	}
	if err := sh.ScheduleTo(1, 1.0, nil); err == nil {
		t.Error("nil cross-shard callback should fail")
	}
	if err := sh.Schedule(-1, noop); err == nil {
		t.Error("negative delay should fail")
	}
	if err := sh.At(-1, noop); err == nil {
		t.Error("scheduling in the shard's past should fail")
	}
	if err := sh.ScheduleTo(0, 0, noop); err != nil {
		t.Errorf("local zero-delay send should succeed: %v", err)
	}
	s.Run()
}

// TestShardedInfiniteLookahead: +Inf lookahead collapses the run into
// one window; with no cross-shard traffic that is still a correct
// drain.
func TestShardedInfiniteLookahead(t *testing.T) {
	s, err := NewSharded(2, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	for i := 0; i < 2; i++ {
		sh := s.Shard(i)
		for j := 0; j < 10; j++ {
			if err := sh.Schedule(float64(j), func() { fired.Add(1) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Run()
	if fired.Load() != 20 {
		t.Errorf("fired = %d, want 20", fired.Load())
	}
	if s.Now() != 9 {
		t.Errorf("Now() = %v, want 9", s.Now())
	}
}

// seededSchedule drives a seeded branching workload through one
// scheduling surface: 40 roots at integer times (so exact ties are
// common), each firing event logs (label, now) and, while its budget
// lasts, schedules up to two children after integer or zero delays. The
// random stream is consumed in firing order, so two surfaces that fire
// in the same order build the same schedule.
func seededSchedule(t *testing.T, seed int64, at func(float64, func()) error, after func(float64, func()) error, now func() float64) *[]string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var visit func(label string, budget int) func()
	visit = func(label string, budget int) func() {
		return func() {
			log = append(log, fmt.Sprintf("%s@%v", label, now()))
			if budget == 0 {
				return
			}
			for c := 0; c < 1+rng.Intn(2); c++ {
				if err := after(float64(rng.Intn(4)), visit(fmt.Sprintf("%s.%d", label, c), budget-1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 40; i++ {
		if err := at(float64(rng.Intn(10)), visit(fmt.Sprint(i), 5)); err != nil {
			t.Fatal(err)
		}
	}
	return &log
}

// TestOneShardIsEngine pins that a one-shard Sharded engine is the
// standalone Engine: the same seeded schedule fires in the same order
// at the same times, and Now, Processed and PendingPeak agree. It also
// pins ScheduleTo on a standalone engine: a send to shard 0 is
// Schedule, a send to any other shard is an error.
func TestOneShardIsEngine(t *testing.T) {
	const seed = 7
	var e Engine
	want := seededSchedule(t, seed, e.At, e.Schedule, e.Now)
	e.Run()

	s, err := NewSharded(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh := s.Shard(0)
	got := seededSchedule(t, seed, sh.At, sh.Schedule, sh.Now)
	s.Run()

	var to Engine
	viaTo := seededSchedule(t, seed, to.At, func(d float64, fn func()) error { return to.ScheduleTo(0, d, fn) }, to.Now)
	to.Run()

	if len(*want) < 200 {
		t.Fatalf("schedule fired only %d events", len(*want))
	}
	for name, run := range map[string]struct {
		log       []string
		now       float64
		processed uint64
		peak      int
	}{
		"NewSharded(1)":     {*got, s.Now(), s.Processed(), s.PendingPeak()},
		"Engine.ScheduleTo": {*viaTo, to.Now(), to.Processed(), to.PendingPeak()},
	} {
		if !reflect.DeepEqual(run.log, *want) {
			t.Errorf("%s: firing order diverges from the standalone engine", name)
		}
		if run.now != e.Now() || run.processed != e.Processed() || run.peak != e.PendingPeak() {
			t.Errorf("%s: (Now, Processed, PendingPeak) = (%v, %d, %d), engine (%v, %d, %d)",
				name, run.now, run.processed, run.peak, e.Now(), e.Processed(), e.PendingPeak())
		}
	}
	if sh.Now() != e.Now() || sh.Processed() != e.Processed() || sh.PendingPeak() != e.PendingPeak() {
		t.Error("the shard's own gauges diverge from the standalone engine")
	}

	if err := to.ScheduleTo(1, 1, func() {}); err == nil {
		t.Error("standalone ScheduleTo(1) should fail: there is no shard 1")
	}
	if err := to.ScheduleTo(-1, 1, func() {}); err == nil {
		t.Error("standalone ScheduleTo(-1) should fail")
	}
	if to.Pending() != 0 {
		t.Errorf("a rejected send left %d events pending", to.Pending())
	}
}
