// Package cache implements the content-store policies the simulator and
// the provisioning model use: the classic replacement baselines (LRU,
// LFU, FIFO), a static provisioned store, and the paper's partitioned
// store that splits capacity between a non-coordinated local part and a
// coordinated part holding the router's assigned slice of the shared
// rank band.
package cache

import (
	"container/heap"
	"fmt"
	"math"

	"ccncoord/internal/catalog"
)

// Store is a fixed-capacity content store. Implementations are not safe
// for concurrent use; the discrete-event simulator is single-threaded by
// construction.
type Store interface {
	// Lookup reports whether id is cached, updating any
	// recency/frequency bookkeeping the policy maintains (a "hit" in
	// cache terms).
	Lookup(id catalog.ID) bool
	// Contains reports whether id is cached without side effects.
	Contains(id catalog.ID) bool
	// Insert offers id to the store after a miss. The policy decides
	// whether to admit it and what to evict; it returns the evicted ID
	// and true if an eviction happened.
	Insert(id catalog.ID) (evicted catalog.ID, ok bool)
	// Len returns the number of cached contents.
	Len() int
	// Cap returns the store capacity in unit contents.
	Cap() int
}

// validateCap rejects negative capacities. Zero is allowed: the paper's
// R0 router has no content store.
func validateCap(capacity int) error {
	if capacity < 0 {
		return fmt.Errorf("cache: capacity must be >= 0, got %d", capacity)
	}
	return nil
}

// --- LRU ---

// lruNode is one slot of the LRU slab: a content and its neighbors in
// the recency ring, as slab indices.
type lruNode struct {
	id         catalog.ID
	prev, next int32
}

// LRU is a least-recently-used store. The recency order is a ring of
// index-linked nodes in one slab rather than a container/list: slot 0
// is the ring's sentinel (next = most recent, prev = least recent),
// slots are appended until the store is full, and from then on every
// insertion reuses the slot of the content it evicts. Insert and Lookup
// therefore never allocate beyond the map's own bookkeeping, and the
// nodes of one store sit together in memory.
type LRU struct {
	capacity int
	nodes    []lruNode
	items    map[catalog.ID]int32 // content -> slot
}

// NewLRU returns an LRU store with the given capacity.
func NewLRU(capacity int) (*LRU, error) {
	if err := validateCap(capacity); err != nil {
		return nil, err
	}
	if capacity >= math.MaxInt32 {
		return nil, fmt.Errorf("cache: LRU capacity %d exceeds the slab index range", capacity)
	}
	return &LRU{
		capacity: capacity,
		nodes:    make([]lruNode, 1, capacity+1),
		items:    make(map[catalog.ID]int32, capacity),
	}, nil
}

// unlink removes slot i from the recency ring.
func (c *LRU) unlink(i int32) {
	nd := &c.nodes[i]
	c.nodes[nd.prev].next = nd.next
	c.nodes[nd.next].prev = nd.prev
}

// pushFront links slot i in as the most recent.
func (c *LRU) pushFront(i int32) {
	head := c.nodes[0].next
	c.nodes[i].prev, c.nodes[i].next = 0, head
	c.nodes[head].prev = i
	c.nodes[0].next = i
}

// touch marks slot i most recent.
func (c *LRU) touch(i int32) {
	if c.nodes[0].next != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// Lookup implements Store.
func (c *LRU) Lookup(id catalog.ID) bool {
	i, ok := c.items[id]
	if ok {
		c.touch(i)
	}
	return ok
}

// Contains implements Store.
func (c *LRU) Contains(id catalog.ID) bool {
	_, ok := c.items[id]
	return ok
}

// Insert implements Store.
func (c *LRU) Insert(id catalog.ID) (catalog.ID, bool) {
	if c.capacity == 0 {
		return 0, false
	}
	if i, ok := c.items[id]; ok {
		c.touch(i)
		return 0, false
	}
	var evicted catalog.ID
	var did bool
	var slot int32
	if len(c.items) >= c.capacity {
		slot = c.nodes[0].prev
		evicted, did = c.nodes[slot].id, true
		c.unlink(slot)
		delete(c.items, evicted)
	} else {
		slot = int32(len(c.nodes))
		c.nodes = append(c.nodes, lruNode{})
	}
	c.nodes[slot].id = id
	c.pushFront(slot)
	c.items[id] = slot
	return evicted, did
}

// Len implements Store.
func (c *LRU) Len() int { return len(c.items) }

// Cap implements Store.
func (c *LRU) Cap() int { return c.capacity }

// --- FIFO ---

// FIFO evicts in insertion order regardless of hits.
type FIFO struct {
	capacity int
	queue    []catalog.ID
	items    map[catalog.ID]struct{}
}

// NewFIFO returns a FIFO store with the given capacity.
func NewFIFO(capacity int) (*FIFO, error) {
	if err := validateCap(capacity); err != nil {
		return nil, err
	}
	return &FIFO{capacity: capacity, items: make(map[catalog.ID]struct{}, capacity)}, nil
}

// Lookup implements Store.
func (c *FIFO) Lookup(id catalog.ID) bool { return c.Contains(id) }

// Contains implements Store.
func (c *FIFO) Contains(id catalog.ID) bool {
	_, ok := c.items[id]
	return ok
}

// Insert implements Store.
func (c *FIFO) Insert(id catalog.ID) (catalog.ID, bool) {
	if c.capacity == 0 {
		return 0, false
	}
	if c.Contains(id) {
		return 0, false
	}
	var evicted catalog.ID
	var did bool
	if len(c.queue) >= c.capacity {
		evicted = c.queue[0]
		c.queue = c.queue[1:]
		delete(c.items, evicted)
		did = true
	}
	c.queue = append(c.queue, id)
	c.items[id] = struct{}{}
	return evicted, did
}

// Len implements Store.
func (c *FIFO) Len() int { return len(c.queue) }

// Cap implements Store.
func (c *FIFO) Cap() int { return c.capacity }

// --- LFU ---

// lfuEntry is a heap node tracking a content's hit count. Ties break by
// insertion sequence (older evicts first), making the policy
// deterministic.
type lfuEntry struct {
	id    catalog.ID
	count int64
	seq   uint64
	index int
}

// lfuHeap is a min-heap by (count, seq).
type lfuHeap []*lfuEntry

func (h lfuHeap) Len() int { return len(h) }
func (h lfuHeap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].seq < h[j].seq
}
func (h lfuHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *lfuHeap) Push(x any) {
	e := x.(*lfuEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *lfuHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// LFU is a least-frequently-used store (the paper's "canonical caching
// policy based on frequency or historical usage").
type LFU struct {
	capacity int
	heap     lfuHeap
	items    map[catalog.ID]*lfuEntry
	seq      uint64
}

// NewLFU returns an LFU store with the given capacity.
func NewLFU(capacity int) (*LFU, error) {
	if err := validateCap(capacity); err != nil {
		return nil, err
	}
	return &LFU{capacity: capacity, items: make(map[catalog.ID]*lfuEntry, capacity)}, nil
}

// Lookup implements Store.
func (c *LFU) Lookup(id catalog.ID) bool {
	e, ok := c.items[id]
	if !ok {
		return false
	}
	e.count++
	heap.Fix(&c.heap, e.index)
	return true
}

// Contains implements Store.
func (c *LFU) Contains(id catalog.ID) bool {
	_, ok := c.items[id]
	return ok
}

// Insert implements Store.
func (c *LFU) Insert(id catalog.ID) (catalog.ID, bool) {
	if c.capacity == 0 {
		return 0, false
	}
	if e, ok := c.items[id]; ok {
		e.count++
		heap.Fix(&c.heap, e.index)
		return 0, false
	}
	var evicted catalog.ID
	var did bool
	if len(c.heap) >= c.capacity {
		victim := heap.Pop(&c.heap).(*lfuEntry)
		delete(c.items, victim.id)
		evicted, did = victim.id, true
	}
	c.seq++
	e := &lfuEntry{id: id, count: 1, seq: c.seq}
	heap.Push(&c.heap, e)
	c.items[id] = e
	return evicted, did
}

// Len implements Store.
func (c *LFU) Len() int { return len(c.heap) }

// Cap implements Store.
func (c *LFU) Cap() int { return c.capacity }

// --- Static ---

// Static holds a fixed provisioned set of contents and never admits
// anything else. It models the steady-state stores of the analytical
// model: the non-coordinated part holds the top-ranked contents, the
// coordinated part holds an assigned rank slice.
type Static struct {
	capacity int
	items    map[catalog.ID]struct{}
}

// NewStatic returns a store pinned to exactly the given contents. The
// capacity equals len(ids); duplicates are rejected.
func NewStatic(ids []catalog.ID) (*Static, error) {
	items := make(map[catalog.ID]struct{}, len(ids))
	for _, id := range ids {
		if !id.Valid() {
			return nil, fmt.Errorf("cache: invalid content id %d", id)
		}
		if _, dup := items[id]; dup {
			return nil, fmt.Errorf("cache: duplicate content id %d", id)
		}
		items[id] = struct{}{}
	}
	return &Static{capacity: len(items), items: items}, nil
}

// Lookup implements Store.
func (c *Static) Lookup(id catalog.ID) bool { return c.Contains(id) }

// Contains implements Store.
func (c *Static) Contains(id catalog.ID) bool {
	_, ok := c.items[id]
	return ok
}

// Insert implements Store; static stores never admit new contents.
func (c *Static) Insert(catalog.ID) (catalog.ID, bool) { return 0, false }

// Len implements Store.
func (c *Static) Len() int { return len(c.items) }

// Cap implements Store.
func (c *Static) Cap() int { return c.capacity }

// StaticRange is a static store pinned to the contiguous rank interval
// [lo, hi]. It behaves exactly like NewStatic(RankRange(lo, hi)) but
// holds O(1) state instead of an O(hi-lo) set, which removes the
// per-router id-slice and map construction from the simulator's
// provisioning path: the non-coordinated local prefix of every policy is
// a contiguous top-k band. A StaticRange is immutable and safe to share.
type StaticRange struct {
	lo, hi catalog.ID
}

// NewStaticRange returns a static store over ranks [lo, hi] inclusive.
// hi = lo-1 denotes an empty store (the paper's R0 router); hi < lo-1 or
// lo < 1 is rejected.
func NewStaticRange(lo, hi int64) (*StaticRange, error) {
	if lo < 1 {
		return nil, fmt.Errorf("cache: static range start %d < 1", lo)
	}
	if hi < lo-1 {
		return nil, fmt.Errorf("cache: static range [%d, %d] is inverted", lo, hi)
	}
	return &StaticRange{lo: catalog.ID(lo), hi: catalog.ID(hi)}, nil
}

// Lookup implements Store.
func (c *StaticRange) Lookup(id catalog.ID) bool { return c.Contains(id) }

// Contains implements Store.
func (c *StaticRange) Contains(id catalog.ID) bool { return id >= c.lo && id <= c.hi }

// Insert implements Store; static stores never admit new contents.
func (c *StaticRange) Insert(catalog.ID) (catalog.ID, bool) { return 0, false }

// Len implements Store.
func (c *StaticRange) Len() int { return int(c.hi - c.lo + 1) }

// Cap implements Store.
func (c *StaticRange) Cap() int { return c.Len() }

// TopK returns the ids of ranks 1..k, the non-coordinated steady state.
func TopK(k int64) []catalog.ID {
	ids := make([]catalog.ID, 0, k)
	for i := int64(1); i <= k; i++ {
		ids = append(ids, catalog.ID(i))
	}
	return ids
}

// RankRange returns the ids of ranks [from, to] inclusive.
func RankRange(from, to int64) []catalog.ID {
	if to < from {
		return nil
	}
	ids := make([]catalog.ID, 0, to-from+1)
	for i := from; i <= to; i++ {
		ids = append(ids, catalog.ID(i))
	}
	return ids
}

// --- Partitioned ---

// Partitioned combines a local (non-coordinated) store with a
// coordinated store, the storage split the paper's model analyzes: each
// router's capacity c is divided into c-x local slots and x coordinated
// slots. Lookups consult both parts; insertions go to the local part
// only (the coordinated part is managed by the coordination protocol).
type Partitioned struct {
	Local       Store
	Coordinated Store
}

// NewPartitioned returns a partitioned store over the two parts.
func NewPartitioned(local, coordinated Store) (*Partitioned, error) {
	if local == nil || coordinated == nil {
		return nil, fmt.Errorf("cache: partitioned store requires both parts")
	}
	return &Partitioned{Local: local, Coordinated: coordinated}, nil
}

// Lookup implements Store.
func (c *Partitioned) Lookup(id catalog.ID) bool {
	// Order matters for policies with bookkeeping: prefer the local part
	// so its recency/frequency state reflects client demand.
	if c.Local.Lookup(id) {
		return true
	}
	return c.Coordinated.Lookup(id)
}

// Contains implements Store.
func (c *Partitioned) Contains(id catalog.ID) bool {
	return c.Local.Contains(id) || c.Coordinated.Contains(id)
}

// Insert implements Store. New contents are admitted by the local
// policy; contents already present anywhere are not duplicated.
func (c *Partitioned) Insert(id catalog.ID) (catalog.ID, bool) {
	if c.Contains(id) {
		return 0, false
	}
	return c.Local.Insert(id)
}

// Len implements Store.
func (c *Partitioned) Len() int { return c.Local.Len() + c.Coordinated.Len() }

// Cap implements Store.
func (c *Partitioned) Cap() int { return c.Local.Cap() + c.Coordinated.Cap() }

// Interface compliance checks.
var (
	_ Store = (*LRU)(nil)
	_ Store = (*FIFO)(nil)
	_ Store = (*LFU)(nil)
	_ Store = (*Static)(nil)
	_ Store = (*StaticRange)(nil)
	_ Store = (*Partitioned)(nil)
)
