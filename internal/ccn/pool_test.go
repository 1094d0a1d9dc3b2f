package ccn

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"ccncoord/internal/cache"
	"ccncoord/internal/catalog"
	"ccncoord/internal/des"
	"ccncoord/internal/topology"
)

const (
	lineRouters = 16
	lineLinkMs  = 5
)

// linePlane is a 16-router line R0 - … - R15 (5 ms links, origin behind
// R0 at 50 ms, 1 ms access latency) on either engine. at schedules fn on
// the executor owning router r; run drains the engine.
type linePlane struct {
	net *Network
	at  func(r topology.NodeID, t float64, fn func())
	run func()
}

// newLinePlane builds the line on the serial engine (shards == 1) or on
// a sharded one that cuts it into equal contiguous runs of routers.
func newLinePlane(tb testing.TB, shards int, mode CachingMode, stores func(topology.NodeID) (cache.Store, error)) linePlane {
	tb.Helper()
	g := topology.New("line16")
	for i := 0; i < lineRouters; i++ {
		g.AddNode("", 0, 0)
	}
	for i := 0; i+1 < lineRouters; i++ {
		g.MustAddEdge(topology.NodeID(i), topology.NodeID(i+1), lineLinkMs)
	}
	cat, err := catalog.New(100, "/t")
	if err != nil {
		tb.Fatal(err)
	}
	opts := Options{AccessLatency: 1, Mode: mode, Stores: stores}
	var p linePlane
	if shards == 1 {
		eng := &des.Engine{}
		if p.net, err = NewNetwork(eng, g, cat, opts); err != nil {
			tb.Fatal(err)
		}
		p.run = eng.Run
		p.at = func(_ topology.NodeID, t float64, fn func()) {
			if err := eng.At(t, fn); err != nil {
				tb.Fatal(err)
			}
		}
	} else {
		se, err := des.NewSharded(shards, lineLinkMs)
		if err != nil {
			tb.Fatal(err)
		}
		shardOf := make([]int32, lineRouters)
		for r := range shardOf {
			shardOf[r] = int32(r * shards / lineRouters)
		}
		if p.net, err = NewShardedNetwork(se, shardOf, g, cat, opts); err != nil {
			tb.Fatal(err)
		}
		p.run = se.Run
		p.at = func(r topology.NodeID, t float64, fn func()) {
			if err := se.Shard(int(shardOf[r])).At(t, fn); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := p.net.AttachOriginAt(0, 50); err != nil {
		tb.Fatal(err)
	}
	return p
}

func emptyStatic(topology.NodeID) (cache.Store, error) { return cache.NewStatic(nil) }
func smallLRU(topology.NodeID) (cache.Store, error)    { return cache.NewLRU(8) }

// poolAudit is the test-only view of the record pools: per pool, how
// many records of each type were ever created and how many sit on the
// free list now. A free list longer than everything ever created means
// a record was released twice (the list has a cycle).
type poolAudit struct {
	createdPackets, freePackets   int
	createdRequests, freeRequests int
	createdEntries, freeEntries   int
}

func auditPools(t *testing.T, n *Network) []poolAudit {
	t.Helper()
	limit := 1
	for i := range n.execs {
		pl := &n.execs[i].pool
		limit += pl.createdPackets + pl.createdRequests + pl.createdEntries
	}
	out := make([]poolAudit, len(n.execs))
	for i := range n.execs {
		pl := &n.execs[i].pool
		a := poolAudit{createdPackets: pl.createdPackets, createdRequests: pl.createdRequests, createdEntries: pl.createdEntries}
		for p := pl.packets; p != nil && a.freePackets <= limit; p = p.next {
			a.freePackets++
		}
		for r := pl.requests; r != nil && a.freeRequests <= limit; r = r.next {
			a.freeRequests++
		}
		for e := pl.entries; e != nil && a.freeEntries <= limit; e = e.next {
			a.freeEntries++
		}
		if a.freePackets > limit || a.freeRequests > limit || a.freeEntries > limit {
			t.Fatalf("pool %d: a free list loops (double release): %+v", i, a)
		}
		out[i] = a
	}
	return out
}

// TestPoolConservation runs one overlapping request stream on the
// serial plane and on a 4-shard plane and checks, at quiescence, that
// every PIT is empty and every record ever created is back on a free
// list: requests and PIT entries on the pool of the shard that made them
// (they never leave it), packets across the pools together (a packet
// crossing a cut is released where it fires). Under -race the sharded
// case also proves no free list is shared between shard goroutines. The
// two planes must agree on every result.
func TestPoolConservation(t *testing.T) {
	const requests = 4000
	results := make(map[int][]RequestResult)
	for _, shards := range []int{1, 4} {
		p := newLinePlane(t, shards, CacheLCE, smallLRU)
		// Completions fire on the first-hop router's executor: one
		// slice per router keeps the callbacks shard-private.
		perRouter := make([][]RequestResult, lineRouters)
		done := make([]func(RequestResult), lineRouters)
		for r := range done {
			r := r
			done[r] = func(res RequestResult) { perRouter[r] = append(perRouter[r], res) }
		}
		// Exponential gaps keep event times free of exact ties, whose
		// order is the one thing the two engines may legitimately
		// resolve differently.
		rng := rand.New(rand.NewSource(1))
		now := 0.0
		for i := 0; i < requests; i++ {
			router := topology.NodeID((i * 5) % lineRouters)
			id := catalog.ID((i*7)%40 + 1)
			reqID := int64(i + 1)
			now += 0.7 * rng.ExpFloat64()
			p.at(router, now, func() {
				if err := p.net.RequestWithID(router, id, reqID, done[router]); err != nil {
					t.Error(err)
				}
			})
		}
		p.run()

		var all []RequestResult
		for _, rs := range perRouter {
			all = append(all, rs...)
		}
		if len(all) != requests {
			t.Fatalf("shards=%d: %d of %d requests completed", shards, len(all), requests)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Req < all[j].Req })
		results[shards] = all

		for _, st := range p.net.AllStats() {
			if st.PITPending != 0 {
				t.Errorf("shards=%d: router %d still has %d pending interests", shards, st.Router, st.PITPending)
			}
		}
		var created, free int
		for i, a := range auditPools(t, p.net) {
			if a.createdRequests != a.freeRequests || a.createdEntries != a.freeEntries {
				t.Errorf("shards=%d pool %d: requests %d made / %d free, PIT entries %d made / %d free",
					shards, i, a.createdRequests, a.freeRequests, a.createdEntries, a.freeEntries)
			}
			if a.createdRequests == 0 || a.createdEntries == 0 {
				t.Errorf("shards=%d pool %d never pooled a request or PIT entry: %+v", shards, i, a)
			}
			created += a.createdPackets
			free += a.freePackets
		}
		if created != free {
			t.Errorf("shards=%d: %d packets made, %d on free lists", shards, created, free)
		}
		if created >= requests {
			t.Errorf("shards=%d: %d packets made for %d requests; records are not being reused", shards, created, requests)
		}
	}
	if !reflect.DeepEqual(results[1], results[4]) {
		t.Error("serial and 4-shard planes disagree on request results")
	}
}

// lineBurst issues n requests from the far end of the line in waves of
// 100, each run to completion. A wave asks for 50 contents twice, from
// different routers, so interests travel most of the line and meet in a
// PIT on the way.
func lineBurst(tb testing.TB, p linePlane, n int) {
	for i := 0; i < n; i++ {
		router := topology.NodeID(lineRouters - 1 - i%4)
		if err := p.net.Request(router, catalog.ID(i%50+1), nil); err != nil {
			tb.Fatal(err)
		}
		if i%100 == 99 {
			p.run()
		}
	}
	p.run()
}

// TestForwardingSteadyStateAllocs: once pools, PIT maps and the event
// heap have grown, forwarding allocates (almost) nothing — the budget is
// 0.1 allocations per request, where the pre-pooling plane spent one per
// hop.
func TestForwardingSteadyStateAllocs(t *testing.T) {
	const burst = 1000
	for _, tc := range []struct {
		name   string
		mode   CachingMode
		stores func(topology.NodeID) (cache.Store, error)
	}{
		{"static", CacheNone, emptyStatic},
		{"lru-lce", CacheLCE, smallLRU},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newLinePlane(t, 1, tc.mode, tc.stores)
			lineBurst(t, p, burst) // warm-up
			perRequest := testing.AllocsPerRun(5, func() { lineBurst(t, p, burst) }) / burst
			if perRequest > 0.1 {
				t.Errorf("%.3f allocations per request in steady state, want <= 0.1", perRequest)
			}
		})
	}
}

// BenchmarkForwardHop measures the per-hop cost of the forwarding path:
// one op is 1 000 requests from the far end of the 16-router line
// under LRU + leave-copy-everywhere, and a hop is one interest or data
// transmission.
func BenchmarkForwardHop(b *testing.B) {
	const burst = 1000
	p := newLinePlane(b, 1, CacheLCE, smallLRU)
	lineBurst(b, p, burst) // warm-up
	hops0 := p.net.InterestTransmissions() + p.net.DataTransmissions()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lineBurst(b, p, burst)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	hops := float64(p.net.InterestTransmissions() + p.net.DataTransmissions() - hops0)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/hops, "ns/hop")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/hops, "allocs/hop")
}
