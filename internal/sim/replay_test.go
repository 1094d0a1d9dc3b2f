package sim

import (
	"math"
	"math/rand"
	"testing"

	"ccncoord/internal/catalog"
	"ccncoord/internal/ccn"
	"ccncoord/internal/des"
)

// oracleHorizon is the per-router horizon loop replayArrivals replaced:
// each router's arrival clock summed on its own, the horizon the latest
// last arrival, floored at 1.
func oracleHorizon(seed int64, interArrival float64, procs []*arrivalProc) float64 {
	horizon := 1.0
	for _, p := range procs {
		rng, t := arrivalClock(seed, int(p.router)), 0.0
		for k := 0; k < p.nReq; k++ {
			t += rng.ExpFloat64() * interArrival
		}
		horizon = math.Max(horizon, t)
	}
	return horizon
}

// oracleDealIDs is the cursor-heap dealer replayArrivals replaced: one
// cursor per process in a hand-rolled min-heap on (time, router), the
// global identities 1..total dealt in heap order. It returns each
// process's identities, indexed like procs.
func oracleDealIDs(seed int64, interArrival float64, procs []*arrivalProc) [][]int64 {
	type cursor struct {
		i   int
		p   *arrivalProc
		rng *rand.Rand
		t   float64
	}
	ids := make([][]int64, len(procs))
	h := make([]*cursor, 0, len(procs))
	less := func(a, b *cursor) bool {
		if a.t != b.t {
			return a.t < b.t
		}
		return a.p.router < b.p.router
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < len(h) && less(h[l], h[best]) {
				best = l
			}
			if r < len(h) && less(h[r], h[best]) {
				best = r
			}
			if best == i {
				return
			}
			h[i], h[best] = h[best], h[i]
			i = best
		}
	}
	for i, p := range procs {
		c := &cursor{i: i, p: p, rng: arrivalClock(seed, int(p.router))}
		c.t = c.rng.ExpFloat64() * interArrival
		h = append(h, c)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	var next int64
	for len(h) > 0 {
		c := h[0]
		next++
		ids[c.i] = append(ids[c.i], next)
		if len(ids[c.i]) == c.p.nReq {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			c.t += c.rng.ExpFloat64() * interArrival
		}
		siftDown(0)
	}
	return ids
}

// TestArrivalReplayMatchesOracles pins the arrival-clock replay to the
// two loops it replaced, exactly: on US-A and on a 1 316-router
// hierarchy, the fault horizon equals the per-router loop's and the
// dealt identities equal the cursor heap's, process by process.
func TestArrivalReplayMatchesOracles(t *testing.T) {
	usa := testScenario()
	usa.Requests, usa.Warmup = 20000, 2000
	hier := testScenario()
	hier.Topology = largeHierarchy(t)
	hier.Requests = 6000
	slow := testScenario()
	slow.Requests, slow.MeanInterArrival, slow.Seed = 5000, 2.5, 9
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{{"US-A", usa}, {"hierarchy", hier}, {"US-A slow clock", slow}} {
		sc := tc.sc
		t.Run(tc.name, func(t *testing.T) {
			pl, err := build(sc, func(cat *catalog.Catalog, opts ccn.Options) (*ccn.Network, error) {
				return ccn.NewNetwork(&des.Engine{}, sc.Topology, cat, opts)
			})
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, p := range pl.procs {
				total += p.nReq
			}
			if total != sc.Requests+sc.Warmup {
				t.Fatalf("processes issue %d requests, want %d", total, sc.Requests+sc.Warmup)
			}

			last, arrivals := 0.0, 0
			pl.replayArrivals(func(_ *arrivalProc, at float64) {
				if at < last {
					t.Fatalf("replay went back in time: %v after %v", at, last)
				}
				last = at
				arrivals++
			})
			if arrivals != total {
				t.Fatalf("replay visited %d arrivals, want %d", arrivals, total)
			}
			if got, want := pl.faultHorizon(), oracleHorizon(sc.Seed, pl.interArrival, pl.procs); got != want {
				t.Errorf("fault horizon = %v, per-router loop = %v", got, want)
			}
			pl.dealRequestIDs()
			want := oracleDealIDs(sc.Seed, pl.interArrival, pl.procs)
			for i, p := range pl.procs {
				got := p.ids
				if len(got) != len(want[i]) {
					t.Fatalf("router %d: replay dealt %d ids, cursor heap %d", p.router, len(got), len(want[i]))
				}
				for k := range got {
					if got[k] != want[i][k] {
						t.Fatalf("router %d request %d: replay dealt id %d, cursor heap %d", p.router, k, got[k], want[i][k])
					}
				}
			}
		})
	}
}
