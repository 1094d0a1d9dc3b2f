package topology

import (
	"math"
	"testing"
)

func TestDatasetsMatchTable2(t *testing.T) {
	for _, g := range All() {
		want, ok := PaperTable2[g.Name()]
		if !ok {
			t.Fatalf("dataset %q not in Table II", g.Name())
		}
		if g.N() != want.V {
			t.Errorf("%s: |V| = %d, want %d", g.Name(), g.N(), want.V)
		}
		if g.DirectedEdgeCount() != want.E {
			t.Errorf("%s: |E| = %d, want %d", g.Name(), g.DirectedEdgeCount(), want.E)
		}
		if !g.Connected() {
			t.Errorf("%s: not connected", g.Name())
		}
	}
}

// TestDatasetsMatchTable3 compares the extracted topological parameters
// with the paper's Table III. w and d1-d0 (ms) are calibrated exactly;
// the mean hop count is structural, matched exactly for Abilene (real
// topology), GEANT and US-A, and within 2% for CERNET (best synthesized
// match, recorded in EXPERIMENTS.md).
func TestDatasetsMatchTable3(t *testing.T) {
	for _, g := range All() {
		want := PaperTable3[g.Name()]
		p, err := ExtractParams(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if math.Abs(p.UnitCost-want.UnitCost) > 0.01 {
			t.Errorf("%s: w = %v, want %v", g.Name(), p.UnitCost, want.UnitCost)
		}
		if math.Abs(p.TierGapMs-want.TierGapMs) > 0.01 {
			t.Errorf("%s: d1-d0 = %v ms, want %v", g.Name(), p.TierGapMs, want.TierGapMs)
		}
		if rel := math.Abs(p.TierGapHops-want.TierGapHops) / want.TierGapHops; rel > 0.02 {
			t.Errorf("%s: d1-d0 = %v hops, want %v (rel err %.3f)", g.Name(), p.TierGapHops, want.TierGapHops, rel)
		}
	}
}

// TestAbileneHopMeanExact: the real Abilene backbone reproduces the
// paper's 2.4182 mean hop count to all published digits, which pins down
// both the topology map and the distinct-pairs averaging convention.
func TestAbileneHopMeanExact(t *testing.T) {
	got := Abilene().hopAPSP().MeanDist(false)
	if math.Abs(got-2.4182) > 0.0001 {
		t.Errorf("Abilene mean hops = %v, want 2.4182", got)
	}
}

// TestExtractParamsHopMeanMatchesOracle: Table III's hop mean comes
// from the breadth-first pass, with no hop matrix; it must equal the
// unit-weight oracle's mean exactly, on the four datasets (the ≤ 64-node
// bit-parallel pass) and on a larger hierarchy (the queue pass).
func TestExtractParamsHopMeanMatchesOracle(t *testing.T) {
	for _, g := range append(All(), midHierarchy(t)) {
		p, err := ExtractParams(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := g.hopAPSP().MeanDist(false); p.TierGapHops != want {
			t.Errorf("%s (%d routers): hop mean %v, oracle %v", g.Name(), g.N(), p.TierGapHops, want)
		}
	}
}

func TestDatasetsDeterministic(t *testing.T) {
	a1, a2 := USA(), USA()
	p1, err := ExtractParams(a1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ExtractParams(a2)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("US-A not deterministic: %+v vs %+v", p1, p2)
	}
}

func TestDatasetsReturnCopies(t *testing.T) {
	g1 := Abilene()
	if err := g1.ScaleLatencies(100); err != nil {
		t.Fatal(err)
	}
	g2 := Abilene()
	l1, _ := g1.EdgeLatency(0, 1)
	l2, _ := g2.EdgeLatency(0, 1)
	if l1 == l2 {
		t.Error("mutating one dataset copy affected subsequent copies")
	}
}

func TestDatasetsHaveMeasuredMatrices(t *testing.T) {
	for _, g := range All() {
		m := g.MeasuredLatencies()
		if m == nil {
			t.Fatalf("%s: no measured latency matrix", g.Name())
		}
		if len(m) != g.N() {
			t.Fatalf("%s: matrix dimension %d, want %d", g.Name(), len(m), g.N())
		}
	}
}

func TestExtractParamsErrors(t *testing.T) {
	tiny := New("tiny")
	tiny.AddNode("only", 0, 0)
	if _, err := ExtractParams(tiny); err == nil {
		t.Error("single-node graph should fail")
	}
	disc := New("disc")
	disc.AddNode("a", 0, 0)
	disc.AddNode("b", 0, 0)
	if _, err := ExtractParams(disc); err == nil {
		t.Error("disconnected graph should fail")
	}
}

func TestGenerators(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		g, err := Ring(5, 2)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 5 || g.Edges() != 5 || !g.Connected() {
			t.Errorf("ring-5: N=%d E=%d", g.N(), g.Edges())
		}
		if _, err := Ring(2, 1); err == nil {
			t.Error("ring of 2 should fail")
		}
	})
	t.Run("star", func(t *testing.T) {
		g, err := Star(6, 1)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 6 || g.Edges() != 5 || len(g.Neighbors(0)) != 5 {
			t.Errorf("star-6 malformed")
		}
		if _, err := Star(1, 1); err == nil {
			t.Error("star of 1 should fail")
		}
	})
	t.Run("grid", func(t *testing.T) {
		g, err := Grid(3, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 12 || g.Edges() != 3*3+2*4 || !g.Connected() {
			t.Errorf("grid 3x4: N=%d E=%d", g.N(), g.Edges())
		}
		if _, err := Grid(1, 1, 1); err == nil {
			t.Error("1x1 grid should fail")
		}
	})
	t.Run("random connected", func(t *testing.T) {
		g, err := RandomConnected(10, 20, 1, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 10 || g.Edges() != 20 || !g.Connected() {
			t.Errorf("random: N=%d E=%d connected=%v", g.N(), g.Edges(), g.Connected())
		}
		if _, err := RandomConnected(10, 5, 1, 5, 3); err == nil {
			t.Error("too few edges should fail")
		}
		if _, err := RandomConnected(10, 100, 1, 5, 3); err == nil {
			t.Error("too many edges should fail")
		}
		if _, err := RandomConnected(10, 20, 0, 5, 3); err == nil {
			t.Error("zero min latency should fail")
		}
	})
	t.Run("waxman", func(t *testing.T) {
		g, err := Waxman("w", 15, 30, 2000, 0.4, 9)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 15 || g.Edges() != 30 || !g.Connected() {
			t.Errorf("waxman: N=%d E=%d connected=%v", g.N(), g.Edges(), g.Connected())
		}
		if _, err := Waxman("w", 1, 0, 2000, 0.4, 9); err == nil {
			t.Error("single node should fail")
		}
	})
}

func TestGeneratorsDeterministic(t *testing.T) {
	g1, err := RandomConnected(12, 25, 1, 10, 77)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RandomConnected(12, 25, 1, 10, 77)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := g1.EdgeList(), g2.EdgeList()
	if len(e1) != len(e2) {
		t.Fatal("different edge counts for same seed")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

func BenchmarkDatasetConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Clone cost only after first build; measures the hot path callers
		// see.
		USA()
	}
}
