package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call, or one timed batch of Ops identical calls, that
// the traced run made into a layer's public functions. Times are
// nanoseconds since the recorder was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = no parent
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Ops      int    `json:"ops"`
}

// recorder keeps spans in memory until the traced run ends. The current
// parent is tracked per recorder, not per goroutine: nested spans are only
// opened from the traced run's main goroutine, while concurrent clients
// record leaf spans under an explicit parent.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
	stack []int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// begin opens a span under the innermost open one and makes it the parent
// of spans opened before the returned function closes it.
func (r *recorder) begin(name string, ops int) (end func() time.Duration) {
	r.mu.Lock()
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Ops: ops})
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	start := time.Now()
	return func() time.Duration {
		stop := time.Now()
		r.mu.Lock()
		s := &r.spans[id-1]
		s.Start, s.End = start.Sub(r.epoch).Nanoseconds(), stop.Sub(r.epoch).Nanoseconds()
		r.stack = r.stack[:len(r.stack)-1]
		r.mu.Unlock()
		return stop.Sub(start)
	}
}

// leaf records an already timed span of ops calls under the innermost open
// one; it is safe to call from several goroutines at once.
func (r *recorder) leaf(name string, ops int, start, stop time.Time) {
	r.mu.Lock()
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Workload: r.workload, Ops: ops,
		Start: start.Sub(r.epoch).Nanoseconds(), End: stop.Sub(r.epoch).Nanoseconds(),
	})
	r.mu.Unlock()
}

// spanTotal aggregates the spans of one name. Self is the time not covered
// by child spans.
type spanTotal struct {
	Name    string `json:"name"`
	Spans   int    `json:"spans"`
	Ops     int    `json:"ops"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func (r *recorder) totals() []spanTotal {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		children[s.Parent] += s.End - s.Start
	}
	byName := map[string]*spanTotal{}
	for _, s := range r.spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
		}
		t.Spans++
		t.Ops += s.Ops
		t.TotalNs += s.End - s.Start
		t.SelfNs += s.End - s.Start - children[s.ID]
	}
	out := make([]spanTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans, their per-name totals and the run's attribution
// table as dir/trace-<workload>.json.
func (r *recorder) write(dir string, attribution any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Workload    string      `json:"workload"`
		Attribution any         `json:"attribution,omitempty"`
		Totals      []spanTotal `json:"totals"`
		Spans       []span      `json:"spans"`
	}{r.workload, attribution, r.totals(), spans}, "", " ")
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+r.workload+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
