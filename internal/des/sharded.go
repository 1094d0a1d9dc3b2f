package des

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Sharded is a conservative parallel discrete-event engine: P logical
// processes ("shards"), each an Engine with its own event heap, clock,
// and sequence counter, synchronized in bulk-synchronous windows. Each
// window the coordinator computes the global minimum next-event time T
// and every shard drains, in parallel, exactly the events with
// timestamp strictly below T + lookahead. The lookahead is the minimum
// latency of any cross-shard link, so an event sent across a shard
// boundary at time t ≥ T arrives at t + lookahead ≥ T + lookahead —
// never inside the window being executed — which makes the window safe
// without rollback (classic Chandy–Misra–Bryant reasoning).
//
// Cross-shard sends are buffered in per-destination outboxes and
// delivered at the window barrier, sorted by (at, source shard, source
// send-sequence) before being pushed into the destination heap. Because
// that order is a pure function of the event content — no wall-clock
// time, no goroutine scheduling — a Sharded run is deterministic: the
// same scenario and shard count always produce the same execution.
//
// Setup (At/Schedule before Run) and everything after Run returns are
// single-threaded; during Run each shard's state is touched only by its
// own worker goroutine, and the barrier establishes the happens-before
// edges between windows.
type Sharded struct {
	lookahead float64
	shards    []*Engine

	crossEvents uint64 // events delivered across shard boundaries
	barrierPeak int    // max total pending observed at window barriers

	// Telemetry. The virtual-time counters (windows, window span, the
	// cross-shard traffic matrix) are always on: they are O(1) per
	// window/delivery and deterministic. Wall-clock timing (per-shard
	// busy and barrier-wait) is gated behind EnableTelemetry because it
	// calls time.Now in the window hot path and is inherently
	// nondeterministic.
	telemetry bool
	windows   uint64     // bulk-synchronous windows executed
	firstT    float64    // virtual start time of the first window
	lastT     float64    // virtual start time of the latest window
	matrix    [][]uint64 // cross-shard deliveries, [src][dst]
}

// remoteEvent is a cross-shard event in flight: ordered on delivery by
// (at, src, seq) so execution order is independent of goroutine timing.
type remoteEvent struct {
	at  float64
	src int32
	seq uint64
	fn  func()
}

// NewSharded builds a conservative parallel engine with the given shard
// count and lookahead. The lookahead must be positive (it is the window
// width beyond the global minimum next-event time); +Inf is allowed and
// collapses the run into a single window, which is correct only when no
// cross-shard sends occur or ordering across shards is immaterial.
// With shards == 1 Run is the one shard's Engine.Run.
func NewSharded(shards int, lookahead float64) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("des: shard count %d < 1", shards)
	}
	if shards > 1 && !(lookahead > 0) {
		return nil, fmt.Errorf("des: lookahead %v must be positive", lookahead)
	}
	s := &Sharded{lookahead: lookahead, shards: make([]*Engine, shards)}
	s.matrix = make([][]uint64, shards)
	for i := range s.shards {
		s.shards[i] = &Engine{id: i, par: s, out: make([][]remoteEvent, shards)}
		s.matrix[i] = make([]uint64, shards)
	}
	return s, nil
}

// EnableTelemetry turns on wall-clock shard timing (per-shard busy time
// and barrier-wait time) for the next Run. The deterministic counters —
// windows, window span, per-shard processed counts, the cross-shard
// traffic matrix — are collected regardless. Call before Run.
func (s *Sharded) EnableTelemetry() { s.telemetry = true }

// Shards returns the number of logical processes.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns the i-th logical process: an Engine whose Schedule and
// At stay on that shard and whose ScheduleTo reaches the others. Call
// its methods from its own events during Run, or from a single
// goroutine outside Run.
func (s *Sharded) Shard(i int) *Engine { return s.shards[i] }

// Lookahead returns the conservative window width.
func (s *Sharded) Lookahead() float64 { return s.lookahead }

// Now returns the maximum shard clock — after Run, the virtual time of
// the last event processed anywhere.
func (s *Sharded) Now() float64 {
	max := 0.0
	for _, sh := range s.shards {
		if sh.now > max {
			max = sh.now
		}
	}
	return max
}

// Processed returns the total number of events fired across all shards.
// For a given scenario this equals the serial engine's count: sharding
// changes where and when events execute, not which events exist.
func (s *Sharded) Processed() uint64 {
	var total uint64
	for _, sh := range s.shards {
		total += sh.processed
	}
	return total
}

// Pending returns the total number of scheduled-but-unfired events
// across all shards (in-flight mailbox events are delivered at barriers
// and so are always in some heap between windows).
func (s *Sharded) Pending() int {
	total := 0
	for _, sh := range s.shards {
		total += len(sh.queue)
	}
	return total
}

// PendingPeak approximates the run's global queue high-water mark: the
// larger of the biggest aggregate depth observed at a window barrier
// and the biggest single-shard depth observed anywhere. It is a lower
// bound on the true instantaneous global peak (which no coordinator
// observes mid-window), but tracks the same capacity signal the serial
// engine's gauge does.
func (s *Sharded) PendingPeak() int {
	peak := s.barrierPeak
	for _, sh := range s.shards {
		if sh.peak > peak {
			peak = sh.peak
		}
	}
	return peak
}

// CrossShardEvents returns how many events were delivered across shard
// boundaries — the numerator of the cross-shard event fraction reported
// by the scale benchmarks.
func (s *Sharded) CrossShardEvents() uint64 { return s.crossEvents }

// ShardStats is one shard's per-run telemetry.
type ShardStats struct {
	Shard       int    `json:"shard"`
	Processed   uint64 `json:"processed"`
	PendingPeak int    `json:"pending_peak"`
	// ActiveWindows counts windows in which this shard fired at least
	// one event; Windows minus this is how often the shard sat idle.
	ActiveWindows uint64 `json:"active_windows"`
	// BusyWallMs and BarrierWaitWallMs are wall-clock (collected only
	// under EnableTelemetry, nondeterministic; ccnbench -diff ignores
	// *_wall_ms leaves): time spent executing events vs idling at window
	// barriers while slower shards finished.
	BusyWallMs        float64 `json:"busy_wall_ms"`
	BarrierWaitWallMs float64 `json:"barrier_wait_wall_ms"`
}

// ShardedStats is the engine's per-run telemetry: window accounting,
// per-shard load balance, and the cross-shard traffic matrix.
type ShardedStats struct {
	Shards int `json:"shards"`
	// Lookahead is the conservative window width; -1 when infinite
	// (JSON cannot carry +Inf).
	Lookahead float64 `json:"lookahead"`
	// Windows counts bulk-synchronous windows executed (0 for the
	// serial single-shard drain, which has no windows).
	Windows uint64 `json:"windows"`
	// FirstWindowAt/LastWindowAt are the virtual start times of the
	// first and latest windows; MeanWindowSpanMs is the mean
	// virtual-time advance between consecutive window starts.
	FirstWindowAt    float64      `json:"first_window_at"`
	LastWindowAt     float64      `json:"last_window_at"`
	MeanWindowSpanMs float64      `json:"mean_window_span_ms"`
	CrossShardEvents uint64       `json:"cross_shard_events"`
	PerShard         []ShardStats `json:"per_shard"`
	// CrossShardMatrix[src][dst] counts events delivered from shard src
	// to shard dst; omitted when no cross-shard traffic occurred.
	CrossShardMatrix [][]uint64 `json:"cross_shard_matrix,omitempty"`
}

// Stats assembles the run's telemetry. Call after Run returns (or
// before it starts); the engine is single-threaded then. Everything
// except the two wall-clock fields is deterministic for a given
// scenario and shard count.
func (s *Sharded) Stats() ShardedStats {
	st := ShardedStats{
		Shards:           len(s.shards),
		Lookahead:        s.lookahead,
		Windows:          s.windows,
		FirstWindowAt:    s.firstT,
		LastWindowAt:     s.lastT,
		CrossShardEvents: s.crossEvents,
		PerShard:         make([]ShardStats, len(s.shards)),
	}
	if math.IsInf(st.Lookahead, 0) {
		st.Lookahead = -1
	}
	if s.windows > 1 {
		st.MeanWindowSpanMs = (s.lastT - s.firstT) / float64(s.windows-1)
	}
	for i, sh := range s.shards {
		st.PerShard[i] = ShardStats{
			Shard:             i,
			Processed:         sh.processed,
			PendingPeak:       sh.peak,
			ActiveWindows:     sh.windows,
			BusyWallMs:        float64(sh.busyNs) / 1e6,
			BarrierWaitWallMs: float64(sh.waitNs) / 1e6,
		}
	}
	if s.crossEvents > 0 {
		st.CrossShardMatrix = make([][]uint64, len(s.matrix))
		for i, row := range s.matrix {
			st.CrossShardMatrix[i] = append([]uint64(nil), row...)
		}
	}
	return st
}

// Run fires events until every heap and mailbox drains. With one shard
// it is that shard's Engine.Run; otherwise it loops bulk-synchronous
// windows: pick the global minimum next-event time T, let every shard
// execute events with at < T+lookahead in parallel, then deliver
// outboxes in deterministic (at, src, seq) order at the barrier.
func (s *Sharded) Run() {
	if len(s.shards) == 1 {
		s.shards[0].Run()
		return
	}

	s.observeBarrierDepth()

	// Persistent workers: one per shard, woken once per window. The
	// channel send and WaitGroup wait carry the happens-before edges
	// between the coordinator and each worker.
	var wg sync.WaitGroup
	wake := make([]chan float64, len(s.shards))
	for i, sh := range s.shards {
		wake[i] = make(chan float64, 1)
		go func(sh *Engine, c <-chan float64) {
			for bound := range c {
				sh.runWindow(bound)
				wg.Done()
			}
		}(sh, wake[i])
	}
	defer func() {
		for _, c := range wake {
			close(c)
		}
	}()

	for {
		t := math.Inf(1)
		for _, sh := range s.shards {
			if len(sh.queue) > 0 && sh.queue[0].at < t {
				t = sh.queue[0].at
			}
		}
		if math.IsInf(t, 1) {
			return
		}
		if s.windows == 0 {
			s.firstT = t
		}
		s.windows++
		s.lastT = t
		var w0 time.Time
		if s.telemetry {
			w0 = time.Now()
		}
		bound := t + s.lookahead
		wg.Add(len(s.shards))
		for i := range wake {
			wake[i] <- bound
		}
		wg.Wait()
		if s.telemetry {
			// The window's wall time is set by its slowest shard; the
			// rest idled at the barrier for the difference. wg.Wait
			// established the happens-before edge that makes the
			// worker-written lastBusyNs visible here.
			wall := time.Since(w0).Nanoseconds()
			for _, sh := range s.shards {
				if d := wall - sh.lastBusyNs; d > 0 {
					sh.waitNs += d
				}
				sh.lastBusyNs = 0
			}
		}
		s.deliver()
		s.observeBarrierDepth()
	}
}

// runWindow drains this shard's events strictly below bound. Events the
// window generates locally (including at times below bound) execute in
// the same window; cross-shard sends land in outboxes.
func (sh *Engine) runWindow(bound float64) {
	tel := sh.par.telemetry
	var t0 time.Time
	if tel {
		t0 = time.Now()
	}
	fired := false
	for len(sh.queue) > 0 && sh.queue[0].at < bound {
		sh.step()
		fired = true
	}
	if fired {
		sh.windows++
	}
	if tel {
		busy := time.Since(t0).Nanoseconds()
		sh.busyNs += busy
		sh.lastBusyNs = busy
	}
}

// deliver moves every outbox event into its destination heap, sorted by
// (at, source shard, send sequence) so delivery order — and therefore
// the destination's tie-breaking sequence numbers — is a deterministic
// function of the event content alone.
func (s *Sharded) deliver() {
	for d, dst := range s.shards {
		dst.inbox = dst.inbox[:0]
		for _, src := range s.shards {
			if len(src.out[d]) > 0 {
				s.matrix[src.id][d] += uint64(len(src.out[d]))
				dst.inbox = append(dst.inbox, src.out[d]...)
				src.out[d] = src.out[d][:0]
			}
		}
		if len(dst.inbox) == 0 {
			continue
		}
		sort.Slice(dst.inbox, func(i, j int) bool {
			a, b := dst.inbox[i], dst.inbox[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.seq < b.seq
		})
		for i := range dst.inbox {
			re := &dst.inbox[i]
			if err := dst.At(re.at, re.fn); err != nil {
				panic(fmt.Sprintf("des: conservative violation: event at %v delivered to shard %d at local time %v", re.at, d, dst.now))
			}
			re.fn = nil // release for GC
		}
		s.crossEvents += uint64(len(dst.inbox))
	}
}

// observeBarrierDepth samples the aggregate pending depth for the
// PendingPeak gauge; called at Run start and after every barrier.
func (s *Sharded) observeBarrierDepth() {
	if total := s.Pending(); total > s.barrierPeak {
		s.barrierPeak = total
	}
}
