// Package des is a minimal deterministic discrete-event simulation
// engine: a virtual clock and a time-ordered event queue. Events
// scheduled for the same instant fire in scheduling order, which keeps
// simulation runs bit-for-bit reproducible.
package des

import (
	"fmt"
)

// event is a scheduled callback.
type event struct {
	at  float64
	seq uint64 // tie-breaker: FIFO within the same instant
	fn  func()
}

// eventHeap is a hand-rolled min-heap over (at, seq). It deliberately
// avoids container/heap: that interface boxes every pushed event into an
// `any`, allocating once per Schedule/At call, which dominated the
// simulator's allocation profile. Operating on the []event slice
// directly keeps scheduling allocation-free after the backing array has
// grown.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends e and restores the heap invariant.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the callback for GC
	q = q[:n]
	*h = q
	// Sift the displaced tail element down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}

// Engine is a discrete-event scheduler. The zero value is a standalone
// engine, ready to use with the clock at 0. Every shard of a Sharded
// engine is an Engine too; the fields below the queue are zero on a
// standalone engine and hold what only a shard needs.
type Engine struct {
	now       float64
	seq       uint64
	queue     eventHeap
	processed uint64
	peak      int

	// Shard state (see Sharded): the engine's index and parent, the
	// cross-shard send sequence, the outboxes (indexed by destination
	// shard) and the barrier's merge scratch.
	id      int
	par     *Sharded
	sendSeq uint64
	out     [][]remoteEvent
	inbox   []remoteEvent

	// Window telemetry, written only by the shard's worker inside
	// runWindow (the barrier's happens-before lets the coordinator read
	// it), except waitNs, which the coordinator writes.
	windows    uint64 // active windows: windows in which this shard fired
	busyNs     int64  // cumulative wall time spent executing events
	lastBusyNs int64  // wall time of the latest window (barrier-wait math)
	waitNs     int64  // cumulative wall time idle at barriers

	_ [64]byte // pad out false sharing between the shards' engines
}

// Now returns the current simulated time (milliseconds by convention in
// this repository, though the engine is unit-agnostic).
func (e *Engine) Now() float64 { return e.now }

// Processed returns how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.queue) }

// PendingPeak returns the largest pending-queue length observed — the
// run's event-queue high-water mark, a capacity signal the run
// manifest records.
func (e *Engine) PendingPeak() int { return e.peak }

// Schedule enqueues fn to run after the given non-negative delay.
func (e *Engine) Schedule(delay float64, fn func()) error { return e.ScheduleTo(e.id, delay, fn) }

// At enqueues fn to run at the given absolute time, which must not be in
// the simulated past. A NaN time is rejected: it compares false against
// everything and would break the heap's (at, seq) total order.
func (e *Engine) At(t float64, fn func()) error {
	if !(t >= e.now) {
		return fmt.Errorf("des: cannot schedule at %v, current time is %v", t, e.now)
	}
	if fn == nil {
		return fmt.Errorf("des: nil event callback")
	}
	e.seq++
	e.queue.push(event{at: t, seq: e.seq, fn: fn})
	if len(e.queue) > e.peak {
		e.peak = len(e.queue)
	}
	return nil
}

// ScheduleTo enqueues fn on shard dst after the given delay. A send to
// the engine's own shard (dst == 0 on a standalone engine) is Schedule:
// the delay must be non-negative. A standalone engine has no other
// shard. A cross-shard send must respect the conservative contract
// delay >= lookahead, which the Sharded engine's safety argument
// depends on, and is buffered in the sender's outbox for deterministic
// delivery at the next barrier.
func (e *Engine) ScheduleTo(dst int, delay float64, fn func()) error {
	if dst == e.id {
		if delay < 0 {
			return fmt.Errorf("des: negative delay %v", delay)
		}
		return e.At(e.now+delay, fn)
	}
	if e.par == nil {
		return fmt.Errorf("des: standalone engine has no shard %d", dst)
	}
	if dst < 0 || dst >= len(e.par.shards) {
		return fmt.Errorf("des: shard %d out of range [0,%d)", dst, len(e.par.shards))
	}
	if !(delay >= e.par.lookahead) {
		return fmt.Errorf("des: cross-shard delay %v below lookahead %v violates the conservative contract", delay, e.par.lookahead)
	}
	if fn == nil {
		return fmt.Errorf("des: nil event callback")
	}
	e.sendSeq++
	e.out[dst] = append(e.out[dst], remoteEvent{at: e.now + delay, src: int32(e.id), seq: e.sendSeq, fn: fn})
	return nil
}

// Run fires events until the queue drains, advancing the clock.
func (e *Engine) Run() {
	for len(e.queue) > 0 {
		e.step()
	}
}

// RunUntil fires events with timestamps <= deadline, then sets the clock
// to the deadline (if it advanced that far).
func (e *Engine) RunUntil(deadline float64) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Step fires exactly one event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.step()
	return true
}

func (e *Engine) step() {
	ev := e.queue.pop()
	e.now = ev.at
	e.processed++
	ev.fn()
}
