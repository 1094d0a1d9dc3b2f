package cache

import (
	"container/list"
	"math"
	"math/rand"
	"testing"

	"ccncoord/internal/catalog"
)

// listLRU is the reference model the slab LRU is checked against: the
// textbook container/list implementation the store used to be.
type listLRU struct {
	capacity int
	ll       *list.List // front = most recent
	items    map[catalog.ID]*list.Element
}

func newListLRU(capacity int) *listLRU {
	return &listLRU{capacity: capacity, ll: list.New(), items: make(map[catalog.ID]*list.Element)}
}

func (c *listLRU) Lookup(id catalog.ID) bool {
	el, ok := c.items[id]
	if ok {
		c.ll.MoveToFront(el)
	}
	return ok
}

func (c *listLRU) Insert(id catalog.ID) (catalog.ID, bool) {
	if c.capacity == 0 {
		return 0, false
	}
	if el, ok := c.items[id]; ok {
		c.ll.MoveToFront(el)
		return 0, false
	}
	var evicted catalog.ID
	var did bool
	if c.ll.Len() >= c.capacity {
		back := c.ll.Back()
		evicted, did = back.Value.(catalog.ID), true
		c.ll.Remove(back)
		delete(c.items, evicted)
	}
	c.items[id] = c.ll.PushFront(id)
	return evicted, did
}

// TestLRUMatchesListModel drives the slab LRU and the list model with
// the same 10⁵ seeded random operations and requires identical answers
// — hit or miss, whether an eviction happened, and which id was evicted
// — at every step, at capacities from the degenerate 0 and 1 up to
// larger than the id universe.
func TestLRUMatchesListModel(t *testing.T) {
	const ops, universe = 100000, 64
	for _, capacity := range []int{0, 1, 2, 7, 32, 100} {
		c, err := NewLRU(capacity)
		if err != nil {
			t.Fatal(err)
		}
		ref := newListLRU(capacity)
		rng := rand.New(rand.NewSource(int64(capacity) + 1))
		for i := 0; i < ops; i++ {
			id := catalog.ID(rng.Intn(universe) + 1)
			if rng.Intn(2) == 0 {
				if got, want := c.Lookup(id), ref.Lookup(id); got != want {
					t.Fatalf("cap %d op %d: Lookup(%d) = %v, model says %v", capacity, i, id, got, want)
				}
			} else {
				ev, did := c.Insert(id)
				wantEv, wantDid := ref.Insert(id)
				if ev != wantEv || did != wantDid {
					t.Fatalf("cap %d op %d: Insert(%d) = (%d, %v), model says (%d, %v)", capacity, i, id, ev, did, wantEv, wantDid)
				}
			}
			if c.Len() != ref.ll.Len() {
				t.Fatalf("cap %d op %d: Len %d, model %d", capacity, i, c.Len(), ref.ll.Len())
			}
			if probe := catalog.ID(rng.Intn(universe) + 1); c.Contains(probe) != (ref.items[probe] != nil) {
				t.Fatalf("cap %d op %d: Contains(%d) disagrees with the model", capacity, i, probe)
			}
		}
	}
}

// TestLRUFullStoreZeroAlloc: a full store serves hits, refreshes and
// evicting inserts without allocating — the evicted slot is reused and
// the index map stays at its size.
func TestLRUFullStoreZeroAlloc(t *testing.T) {
	const capacity = 100
	c, err := NewLRU(capacity)
	if err != nil {
		t.Fatal(err)
	}
	next := catalog.ID(1)
	for ; c.Len() < capacity; next++ {
		c.Insert(next)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < capacity; i++ {
			c.Lookup(next - 1 - catalog.ID(i%capacity)) // hit, moves to front
			c.Insert(next)                              // miss, evicts the least recent
			next++
		}
	})
	if allocs != 0 {
		t.Errorf("full LRU allocated %.1f times per %d lookups+inserts, want 0", allocs, capacity)
	}
	if c.Len() != capacity {
		t.Errorf("Len = %d, want %d", c.Len(), capacity)
	}
}

func TestLRUCapacityBeyondSlabIndexRejected(t *testing.T) {
	if _, err := NewLRU(math.MaxInt32); err == nil {
		t.Error("NewLRU accepted a capacity its int32 slot indices cannot address")
	}
}
