package ccn

import (
	"testing"

	"ccncoord/internal/cache"
	"ccncoord/internal/catalog"
	"ccncoord/internal/des"
	"ccncoord/internal/topology"
)

// lossyNet builds the 3-router line with the given loss rate.
func lossyNet(t *testing.T, lossRate float64, seed int64) (*des.Engine, *Network) {
	t.Helper()
	g := topology.New("line3")
	for i := 0; i < 3; i++ {
		g.AddNode("", 0, 0)
	}
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 5)
	cat, err := catalog.New(100, "/t")
	if err != nil {
		t.Fatal(err)
	}
	eng := &des.Engine{}
	net, err := NewNetwork(eng, g, cat, Options{
		AccessLatency: 1,
		LossRate:      lossRate,
		RetxTimeout:   200,
		LossSeed:      seed,
		Stores: func(topology.NodeID) (cache.Store, error) {
			return cache.NewStatic(nil)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AttachOriginAt(0, 50); err != nil {
		t.Fatal(err)
	}
	return eng, net
}

func TestLossOptionsValidation(t *testing.T) {
	g := topology.New("g")
	g.AddNode("", 0, 0)
	g.AddNode("", 0, 0)
	g.MustAddEdge(0, 1, 1)
	cat, _ := catalog.New(10, "/t")
	stores := func(topology.NodeID) (cache.Store, error) { return cache.NewLRU(1) }
	if _, err := NewNetwork(&des.Engine{}, g, cat, Options{Stores: stores, LossRate: 1}); err == nil {
		t.Error("loss rate 1 should fail")
	}
	if _, err := NewNetwork(&des.Engine{}, g, cat, Options{Stores: stores, LossRate: -0.1}); err == nil {
		t.Error("negative loss rate should fail")
	}
	if _, err := NewNetwork(&des.Engine{}, g, cat, Options{Stores: stores, LossRate: 0.1}); err == nil {
		t.Error("lossy fabric without retx timeout should fail")
	}
}

// TestAllRequestsCompleteUnderLoss: retransmission recovers every loss,
// so all requests eventually complete even on a very lossy fabric.
func TestAllRequestsCompleteUnderLoss(t *testing.T) {
	eng, net := lossyNet(t, 0.3, 7)
	const total = 200
	completed := 0
	for i := 0; i < total; i++ {
		id := catalog.ID(i%50 + 1)
		if err := net.Request(2, id, func(RequestResult) { completed++ }); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if completed != total {
		t.Fatalf("completed %d of %d requests", completed, total)
	}
	if net.DroppedInterests()+net.DroppedData() == 0 {
		t.Error("30% loss produced no drops; loss process inert?")
	}
	if net.Retransmissions() == 0 {
		t.Error("no retransmissions despite drops")
	}
}

// TestLossRaisesLatency: the same workload completes slower on a lossy
// fabric.
func TestLossRaisesLatency(t *testing.T) {
	meanLatency := func(lossRate float64) float64 {
		eng, net := lossyNet(t, lossRate, 3)
		var sum float64
		var count int
		for i := 0; i < 100; i++ {
			id := catalog.ID(i%20 + 1)
			if err := net.Request(2, id, func(r RequestResult) {
				sum += r.Latency()
				count++
			}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		if count != 100 {
			t.Fatalf("only %d completions", count)
		}
		return sum / float64(count)
	}
	lossless := meanLatency(0)
	lossy := meanLatency(0.25)
	if lossy <= lossless {
		t.Errorf("lossy latency %v not above lossless %v", lossy, lossless)
	}
}

// TestZeroLossIdentical: LossRate 0 must behave exactly like the
// original lossless fabric, counters included.
func TestZeroLossIdentical(t *testing.T) {
	eng, net := lossyNet(t, 0, 1)
	done := 0
	for i := 0; i < 10; i++ {
		if err := net.Request(2, catalog.ID(i+1), func(RequestResult) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if done != 10 {
		t.Fatalf("completed %d", done)
	}
	if net.DroppedInterests() != 0 || net.DroppedData() != 0 || net.Retransmissions() != 0 {
		t.Error("lossless fabric recorded loss activity")
	}
}

// TestLossDeterministic: the same seed reproduces the same loss
// pattern.
func TestLossDeterministic(t *testing.T) {
	run := func() (int64, int64, int64) {
		eng, net := lossyNet(t, 0.2, 42)
		for i := 0; i < 50; i++ {
			if err := net.Request(2, catalog.ID(i+1), nil); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		return net.DroppedInterests(), net.DroppedData(), net.Retransmissions()
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Errorf("loss process not deterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
}

// TestLossyCoordinatedOwnerPath exercises the directory-redirection
// path under loss: interests for coordinated contents are redirected to
// the owner router over a lossy fabric, and retransmission recovers
// every drop, so all requests complete peer-served.
func TestLossyCoordinatedOwnerPath(t *testing.T) {
	g := topology.New("line3")
	for i := 0; i < 3; i++ {
		g.AddNode("", 0, 0)
	}
	g.MustAddEdge(0, 1, 5)
	g.MustAddEdge(1, 2, 5)
	cat, err := catalog.New(100, "/t")
	if err != nil {
		t.Fatal(err)
	}
	dir := mapDirectory{}
	for i := 1; i <= 20; i++ {
		dir[catalog.ID(i)] = 1
	}
	eng := &des.Engine{}
	net, err := NewNetwork(eng, g, cat, Options{
		AccessLatency: 1,
		LossRate:      0.25,
		RetxTimeout:   200,
		LossSeed:      11,
		Directory:     dir,
		// Keep every retry on the owner path: this test pins down the
		// redirection machinery itself, not the degradation to origin.
		// (The fallback is already inert without Options.Faults; the
		// explicit -1 keeps the test self-contained.)
		OriginFallbackRetries: -1,
		Stores: func(r topology.NodeID) (cache.Store, error) {
			if r == 1 {
				return cache.NewStatic(cache.RankRange(1, 20))
			}
			return cache.NewStatic(nil)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AttachOriginAt(0, 50); err != nil {
		t.Fatal(err)
	}
	const total = 100
	completed, peer, failed := 0, 0, 0
	for i := 0; i < total; i++ {
		id := catalog.ID(i%20 + 1) // all redirected to owner 1
		if err := net.Request(2, id, func(r RequestResult) {
			completed++
			if r.Failed {
				failed++
			}
			if r.ServedBy == ServedPeer {
				peer++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if completed != total {
		t.Fatalf("completed %d of %d requests", completed, total)
	}
	if failed != 0 {
		t.Errorf("%d requests failed; the owner is up, retries should recover", failed)
	}
	if peer != total {
		t.Errorf("%d of %d served by the owner; directory redirection under loss broken?", peer, total)
	}
	if net.DroppedInterests()+net.DroppedData() == 0 {
		t.Error("25% loss produced no drops on the owner path")
	}
	if net.Retransmissions() == 0 {
		t.Error("no retransmissions despite drops on the owner path")
	}
}

func TestCacheProbValidation(t *testing.T) {
	g := topology.New("g")
	g.AddNode("", 0, 0)
	g.AddNode("", 0, 0)
	g.MustAddEdge(0, 1, 1)
	cat, _ := catalog.New(10, "/t")
	stores := func(topology.NodeID) (cache.Store, error) { return cache.NewLRU(2) }
	if _, err := NewNetwork(&des.Engine{}, g, cat, Options{Stores: stores, Mode: CacheProb}); err == nil {
		t.Error("CacheProb without probability should fail")
	}
	if _, err := NewNetwork(&des.Engine{}, g, cat, Options{Stores: stores, Mode: CacheProb, CacheProbability: 1.5}); err == nil {
		t.Error("probability > 1 should fail")
	}
}

// TestCacheProbThinsReplicas: with a low admission probability the
// network stores far fewer copies than LCE for the same traffic.
func TestCacheProbThinsReplicas(t *testing.T) {
	replicas := func(mode CachingMode, p float64) int {
		g := topology.New("line5")
		for i := 0; i < 5; i++ {
			g.AddNode("", 0, 0)
		}
		for i := 0; i+1 < 5; i++ {
			g.MustAddEdge(topology.NodeID(i), topology.NodeID(i+1), 5)
		}
		cat, err := catalog.New(10, "/t")
		if err != nil {
			t.Fatal(err)
		}
		eng := &des.Engine{}
		net, err := NewNetwork(eng, g, cat, Options{
			AccessLatency: 1, Mode: mode, CacheProbability: p, LossSeed: 5,
			Stores: func(topology.NodeID) (cache.Store, error) { return cache.NewLRU(10) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AttachOriginAt(0, 50); err != nil {
			t.Fatal(err)
		}
		// One request per content from the far end; the return path
		// crosses all five routers.
		for i := 1; i <= 10; i++ {
			if err := net.Request(4, catalog.ID(i), nil); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		count := 0
		for r := topology.NodeID(0); r < 5; r++ {
			st, err := net.Store(r)
			if err != nil {
				t.Fatal(err)
			}
			count += st.Len()
		}
		return count
	}
	lce := replicas(CacheLCE, 0)
	prob := replicas(CacheProb, 0.2)
	if prob >= lce {
		t.Errorf("probabilistic caching stored %d copies, LCE stored %d", prob, lce)
	}
	if prob == 0 {
		t.Error("probabilistic caching stored nothing at p=0.2 over 50 arrivals")
	}
}

// TestStaleRetxTimerIgnoresRecycledEntry: a retransmission timer that
// outlives its PIT entry must not adopt the next entry for the same
// (router, content), even when the pool hands the new interest the very
// same record. On the fault-aware triangle (timers arm without loss) the
// first fetch of content 50 from R2 is satisfied at t=111, long before
// its 200 ms timer; a second fetch re-enters R2's PIT at t=151, so the
// old timer fires at t=201 on a live, recycled entry. Nothing was lost,
// so nothing may be retransmitted or expired — the counts the plane
// produced before entries were pooled.
func TestStaleRetxTimerIgnoresRecycledEntry(t *testing.T) {
	eng, net := triangle(t, func(o *Options) { o.RetxTimeout = 200 })

	const id = catalog.ID(50) // outside the directory: fetched from the origin via R0
	var results []RequestResult
	issue := func() {
		if err := net.Request(2, id, func(r RequestResult) { results = append(results, r) }); err != nil {
			t.Error(err)
		}
	}
	// sample notes R2's pending entry for the content while each fetch
	// is in flight, to show the second one reuses the record.
	var entries []*pitEntry
	sample := func() { entries = append(entries, net.nodes[2].pit[id]) }
	for _, ev := range []struct {
		at float64
		fn func()
	}{{0, issue}, {50, sample}, {150, issue}, {200.5, sample}} {
		if err := eng.At(ev.at, ev.fn); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()

	if len(entries) != 2 || entries[0] == nil || entries[0] != entries[1] {
		t.Fatalf("the second interest did not recycle the first one's PIT entry (%p, %p); the test no longer exercises the stale timer", entries[0], entries[1])
	}
	if len(results) != 2 {
		t.Fatalf("%d of 2 requests completed", len(results))
	}
	for i, r := range results {
		// R2 -> R0 -> origin and back: 2*(1 + 5 + 50) = 112.
		if r.Failed || r.Latency() != 112 {
			t.Errorf("request %d: failed=%v latency=%v, want an origin fetch in 112 ms", i, r.Failed, r.Latency())
		}
	}
	if got := net.Retransmissions(); got != 0 {
		t.Errorf("Retransmissions() = %d, want 0: a stale timer re-sent a recycled entry's interest", got)
	}
	if got := net.ExpiredInterests(); got != 0 {
		t.Errorf("ExpiredInterests() = %d, want 0", got)
	}
}
