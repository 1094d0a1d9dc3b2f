package coord

import (
	"fmt"
	"math"
	"slices"

	"ccncoord/internal/catalog"
	"ccncoord/internal/topology"
)

// Tally owns one epoch's popularity observations as an append-only log
// of (router, content), so recording a completed request is one slice
// append. Fold turns the log into what a coordination epoch consumes.
// Memory is O(observations + catalog size) — never routers × catalog,
// however the traffic is skewed across routers — and every buffer is
// reused between epochs. Not safe for concurrent use.
type Tally struct {
	log []observation

	// Fold scratch.
	ends    []int       // per router: end of its run in grouped
	grouped []int32     // the log's contents, grouped by router
	cells   []tallyCell // by content id; all zero between folds
	counts  []Count
}

// observation is held to 8 bytes: the log is the tally's largest
// buffer, and ids beyond int32 could not index the dense cells anyway.
type observation struct {
	router  int32
	content int32
}

// tallyCell is one content's fold state: its epoch total, and the last
// router (1-based) whose report it was counted into.
type tallyCell struct {
	n      int64
	router int32
}

// NewTally returns an empty tally for routers 0..routers-1 observing
// contents 1..catalogSize.
func NewTally(routers int, catalogSize int64) (*Tally, error) {
	if routers < 1 || routers >= math.MaxInt32 {
		return nil, fmt.Errorf("coord: tally router count %d outside [1, %d)", routers, math.MaxInt32)
	}
	if catalogSize < 1 || catalogSize >= math.MaxInt32 {
		return nil, fmt.Errorf("coord: tally catalog size %d outside [1, %d)", catalogSize, math.MaxInt32)
	}
	return &Tally{
		ends:  make([]int, routers),
		cells: make([]tallyCell, catalogSize+1),
	}, nil
}

// Observe records one request for content seen at router. Both must lie
// in the ranges the tally was built for; Fold indexes by them.
func (t *Tally) Observe(router topology.NodeID, content catalog.ID) {
	t.log = append(t.log, observation{int32(router), int32(content)})
}

// Len returns the number of observations since the last Fold.
func (t *Tally) Len() int { return len(t.log) }

// Folded is one epoch's observations in the form the coordinator
// consumes. Counts aliases the tally's scratch: it is valid until the
// next Fold and may be reordered by the ranking.
type Folded struct {
	// Counts holds every observed content with its total over all
	// routers, in no particular order.
	Counts []Count
	// Reported is the sum over routers of the distinct contents each
	// observed — the cardinality of the reports a router-side
	// implementation would send. MaxReport is the largest of them.
	Reported  int64
	MaxReport int64
}

// Fold drains the log. A counting sort groups it by router, so a
// content's "already in this router's report" state is one stamp in its
// cell instead of a set per router.
func (t *Tally) Fold() Folded {
	clear(t.ends)
	for _, o := range t.log {
		t.ends[o.router]++
	}
	// ends[r] becomes the start of router r's run, then advances to its
	// end as the scatter fills the run.
	sum := 0
	for r, c := range t.ends {
		t.ends[r] = sum
		sum += c
	}
	t.grouped = slices.Grow(t.grouped[:0], len(t.log))[:len(t.log)]
	for _, o := range t.log {
		t.grouped[t.ends[o.router]] = o.content
		t.ends[o.router]++
	}
	t.log = t.log[:0]

	var f Folded
	t.counts = t.counts[:0]
	start := 0
	for r, end := range t.ends {
		stamp := int32(r + 1)
		var card int64
		for _, id := range t.grouped[start:end] {
			cell := &t.cells[id]
			if cell.n == 0 {
				t.counts = append(t.counts, Count{ID: catalog.ID(id)})
			}
			cell.n++
			if cell.router != stamp {
				cell.router = stamp
				card++
			}
		}
		f.Reported += card
		f.MaxReport = max(f.MaxReport, card)
		start = end
	}
	for i := range t.counts {
		cell := &t.cells[t.counts[i].ID]
		t.counts[i].N = cell.n
		*cell = tallyCell{}
	}
	f.Counts = t.counts
	return f
}
