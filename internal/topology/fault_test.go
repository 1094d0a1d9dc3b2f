package topology

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refAlive computes the reference routing state of a faulted graph from
// scratch: clone the base graph, remove every down link and every link
// incident to a down node, and solve the oracle.
func refAlive(t *testing.T, g *Graph, nodeDown map[NodeID]bool, linkDown map[[2]NodeID]bool) *APSP {
	t.Helper()
	alive := g.Clone()
	for _, e := range g.EdgeList() {
		if nodeDown[e.A] || nodeDown[e.B] || linkDown[LinkKey(e.A, e.B)] {
			if err := alive.RemoveEdge(e.A, e.B); err != nil {
				t.Fatalf("removing %d-%d: %v", e.A, e.B, err)
			}
		}
	}
	return alive.apsp()
}

// checkLRUMatches queries every source of l in the given order and
// asserts each Dist and Next equals the fresh solve ref exactly.
func checkLRUMatches(t *testing.T, stage string, l *LRUPaths, ref *APSP, order []int) {
	t.Helper()
	n := l.N()
	for _, s := range order {
		for d := 0; d < n; d++ {
			si, di := NodeID(s), NodeID(d)
			if got, want := l.Dist(si, di), ref.Dist(si, di); got != want {
				t.Fatalf("%s: Dist(%d,%d) = %v, fresh solve %v", stage, s, d, got, want)
			}
			if got, want := l.Next(si, di), ref.Next(si, di); got != want {
				t.Fatalf("%s: Next(%d,%d) = %d, fresh solve %d", stage, s, d, got, want)
			}
		}
	}
}

// faultGraphs returns the four calibrated datasets plus a random and a
// Waxman graph.
func faultGraphs(t *testing.T) []*Graph {
	t.Helper()
	rc, err := RandomConnected(30, 60, 1, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	wx, err := Waxman("wax-fault", 25, 50, 4000, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	return append(All(), rc, wx)
}

// TestLRUFaultsMatchFullRecompute drives scripted and seeded schedules
// of router and link fault/repair events through LRUPaths and checks,
// after every event, that every Dist and Next equals a fresh solve over
// the alive subgraph. Capacity n keeps every tree cached so only
// invalidation refreshes them; capacity 3 interleaves eviction with
// invalidation.
func TestLRUFaultsMatchFullRecompute(t *testing.T) {
	for _, g := range faultGraphs(t) {
		n := g.N()
		edges := g.EdgeList()
		for _, capacity := range []int{n, 3} {
			t.Run(fmt.Sprintf("%s/cap%d", g.Name(), capacity), func(t *testing.T) {
				l := NewLRUPaths(g, capacity)
				rng := rand.New(rand.NewSource(int64(n*31 + capacity)))
				nodeDown := map[NodeID]bool{}
				linkDown := map[[2]NodeID]bool{}
				setNode := func(v NodeID, up bool) {
					if up {
						delete(nodeDown, v)
					} else {
						nodeDown[v] = true
					}
					l.SetNode(v, up)
				}
				setLink := func(e Edge, up bool) {
					if up {
						delete(linkDown, LinkKey(e.A, e.B))
					} else {
						linkDown[LinkKey(e.A, e.B)] = true
					}
					l.SetLink(e.A, e.B, up)
				}
				check := func(stage string) {
					t.Helper()
					checkLRUMatches(t, stage, l, refAlive(t, g, nodeDown, linkDown), rng.Perm(n))
				}
				check("all up")

				// Scripted: a down source, link-up under a down
				// endpoint, and idempotent repeats.
				e := edges[0]
				setNode(e.A, false)
				check("source down")
				setLink(e, false)
				setLink(e, true)
				check("link up under down endpoint")
				setNode(e.A, false)
				setLink(e, true)
				check("idempotent repeats")
				setNode(e.A, true)
				check("source up")

				// Seeded: random overlapping faults and repairs.
				for step := 0; step < 40; step++ {
					up := rng.Intn(2) == 0
					if rng.Intn(3) == 0 {
						setNode(NodeID(rng.Intn(n)), up)
					} else {
						setLink(edges[rng.Intn(len(edges))], up)
					}
					check(fmt.Sprintf("step %d", step))
				}

				// Restore to all-up: the kernel's all-up path returns.
				for v := range nodeDown {
					setNode(v, true)
				}
				for _, e := range edges {
					if linkDown[LinkKey(e.A, e.B)] {
						setLink(e, true)
					}
				}
				if l.down != nil {
					t.Fatal("down set not cleared after the last repair")
				}
				check("restored")
				if got, want := l.MaxDist(), g.apsp().MaxDist(); got != want {
					t.Fatalf("restored MaxDist = %v, oracle %v", got, want)
				}
			})
		}
	}
}

// TestLRULinkDownEvictsOnlyUsers pins the incremental property: after a
// link goes down, re-querying every source costs exactly one miss per
// cached tree that used the link.
func TestLRULinkDownEvictsOnlyUsers(t *testing.T) {
	for _, g := range faultGraphs(t) {
		n := g.N()
		l := NewLRUPaths(g, n)
		for s := 0; s < n; s++ {
			l.Dist(NodeID(s), 0)
		}
		for _, e := range g.EdgeList() {
			users := 0
			for i := range l.trees {
				if tr := l.trees[i].Load(); tr != nil && (NodeID(tr.parent[e.B]) == e.A || NodeID(tr.parent[e.A]) == e.B) {
					users++
				}
			}
			if users == 0 || users == n {
				continue
			}
			_, before, _ := l.Stats()
			l.SetLink(e.A, e.B, false)
			for s := 0; s < n; s++ {
				l.Dist(NodeID(s), 0)
			}
			if _, after, _ := l.Stats(); int(after-before) != users {
				t.Errorf("%s: link %d-%d down cost %d misses, %d trees used it", g.Name(), e.A, e.B, after-before, users)
			}
			break
		}
	}
}

// TestLRURerouteCarriesFaults checks that a table rebuilt over a
// structurally changed graph keeps the fault state and solves the alive
// subgraph, not the pristine one.
func TestLRURerouteCarriesFaults(t *testing.T) {
	g, err := Waxman("wax-reroute", 15, 25, 3000, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.EdgeList()
	down, gone := edges[3], edges[7]
	var v NodeID
	for _, cand := range g.Nodes() {
		if cand.ID != down.A && cand.ID != down.B && cand.ID != gone.A && cand.ID != gone.B {
			v = cand.ID
			break
		}
	}
	l := NewLRUPaths(g, 0)
	l.SetNode(v, false)
	l.SetLink(down.A, down.B, false)

	g2 := g.Clone()
	if err := g2.RemoveEdge(gone.A, gone.B); err != nil {
		t.Fatal(err)
	}
	r := l.Reroute(g2)
	if !r.LinkDown(down.A, down.B) {
		t.Fatal("rebuilt table lost the down link")
	}
	ref := refAlive(t, g2, map[NodeID]bool{v: true}, map[[2]NodeID]bool{LinkKey(down.A, down.B): true})
	order := make([]int, g2.N())
	for i := range order {
		order[i] = i
	}
	checkLRUMatches(t, "rerouted", r, ref, order)
	if r.Dist(v, v) != 0 || !math.IsInf(r.Dist(v, down.A), 1) {
		t.Fatalf("down router %d not isolated in the rebuilt table", v)
	}
}
