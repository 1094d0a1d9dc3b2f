package ccn

import (
	"reflect"
	"strings"
	"testing"

	"ccncoord/internal/catalog"
	"ccncoord/internal/des"
	"ccncoord/internal/topology"
	"ccncoord/internal/trace"
)

// TestShardBlockers pins the blocker names and their order — sim reports
// them verbatim as its shard fallback reason, and run manifests carry
// that reason — and checks that NewShardedNetwork rejects exactly the
// options the list names.
func TestShardBlockers(t *testing.T) {
	features := []struct {
		name string
		set  func(*Options)
	}{
		{"fault injection", func(o *Options) { o.Faults, o.RetxTimeout = true, 100 }},
		{"loss process", func(o *Options) { o.LossRate, o.RetxTimeout = 0.1, 100 }},
		{"link queueing", func(o *Options) { o.LinkRate = 1 }},
		{"event tracing", func(o *Options) { o.Tracer = &trace.Tracer{} }},
		{"probabilistic caching", func(o *Options) { o.Mode, o.CacheProbability = CacheProb, 0.5 }},
	}
	var all Options
	var want []string
	for _, f := range features {
		f.set(&all)
		want = append(want, f.name)
	}
	if got := ShardBlockers(all); !reflect.DeepEqual(got, want) {
		t.Errorf("ShardBlockers(every feature) = %q, want %q", got, want)
	}

	g := topology.New("line4")
	for i := 0; i < 4; i++ {
		g.AddNode("", 0, 0)
	}
	for i := 0; i+1 < 4; i++ {
		g.MustAddEdge(topology.NodeID(i), topology.NodeID(i+1), 5)
	}
	cat, err := catalog.New(100, "/t")
	if err != nil {
		t.Fatal(err)
	}
	shardOf := []int32{0, 0, 1, 1}
	build := func(opts Options) error {
		se, err := des.NewSharded(2, 5)
		if err != nil {
			t.Fatal(err)
		}
		opts.Stores = emptyStatic
		_, err = NewShardedNetwork(se, shardOf, g, cat, opts)
		return err
	}
	if got := ShardBlockers(Options{Mode: CacheLCE}); len(got) != 0 {
		t.Errorf("ShardBlockers(plain LCE plane) = %q, want none", got)
	}
	if err := build(Options{Mode: CacheLCE}); err != nil {
		t.Errorf("plain LCE plane rejected: %v", err)
	}
	for _, f := range features {
		var opts Options
		f.set(&opts)
		if got := ShardBlockers(opts); !reflect.DeepEqual(got, []string{f.name}) {
			t.Errorf("ShardBlockers(%s only) = %q", f.name, got)
		}
		if err := build(opts); err == nil || !strings.Contains(err.Error(), f.name) {
			t.Errorf("NewShardedNetwork with %s: err = %v, want a rejection naming it", f.name, err)
		}
	}
}
