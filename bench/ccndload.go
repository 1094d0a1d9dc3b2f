package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ccncoord/internal/daemon"
)

const (
	// pollEvery is the pause between two GET /stats of one poller.
	pollEvery = 500 * time.Microsecond
	// batchTimeout is how long a batch may take before it counts as failed.
	batchTimeout = 10 * time.Second
	// stopTimeout is how long a drained ccnd may take to exit.
	stopTimeout = 30 * time.Second
)

// ccndProc is one running ccnd child.
type ccndProc struct {
	cmd      *exec.Cmd
	base     string        // http://host:port
	manifest string        // where the child writes its final manifest; "" = nowhere
	exited   chan struct{} // closed once the child has been waited for
	waitErr  error         // the child's exit status; read after exited closes

	mu   sync.Mutex
	tail []string // last lines of the child's stderr, for error messages
}

var servingLine = regexp.MustCompile(`serving on (http://[^ ]+) `)

// spawnCcnd starts ccnd with its defaults on US-A and a free loopback port,
// and returns once the child has printed "ccnd: ready".
func spawnCcnd(cfg config, manifest string) (*ccndProc, error) {
	args := []string{"-topology", "US-A", "-http", "127.0.0.1:0", "-seed", strconv.FormatInt(cfg.seed, 10)}
	if manifest != "" {
		args = append(args, "-manifest", manifest)
	}
	p := &ccndProc{cmd: exec.Command(cfg.ccnd, args...), manifest: manifest, exited: make(chan struct{})}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ccnd: %w", err)
	}
	ready := make(chan struct{})
	go func() {
		// Read stderr to its end before Wait, as os/exec requires.
		sc := bufio.NewScanner(stderr)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			if m := servingLine.FindStringSubmatch(line); m != nil {
				p.base = m[1]
			}
			p.mu.Unlock()
			if !signalled && strings.Contains(line, "ccnd: ready") {
				signalled = true
				close(ready)
			}
		}
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	select {
	case <-ready:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("ccnd exited before it was ready: %v\n%s", p.waitErr, p.stderrTail())
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("ccnd was not ready within 60 s\n%s", p.stderrTail())
	}
}

func (p *ccndProc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// kill stops the child at once and waits for it; it does nothing to a
// child that has already exited.
func (p *ccndProc) kill() {
	_ = p.cmd.Process.Kill() // fails only if the child already exited
	select {
	case <-p.exited:
	case <-time.After(stopTimeout):
	}
}

// stop drains the child through POST /shutdown and waits for it to exit. It
// returns an error if the child did not exit with code 0.
func (p *ccndProc) stop() error {
	c := newClient(p.base)
	status, _, err := c.do(http.MethodPost, "/shutdown", nil)
	if err != nil || status != http.StatusAccepted {
		p.kill()
		return fmt.Errorf("POST /shutdown: status %d, %v", status, err)
	}
	select {
	case <-p.exited:
		if p.waitErr != nil {
			return fmt.Errorf("ccnd exit: %v\n%s", p.waitErr, p.stderrTail())
		}
		return nil
	case <-time.After(stopTimeout):
		p.kill()
		return fmt.Errorf("ccnd did not exit within %v of POST /shutdown", stopTimeout)
	}
}

// client is one HTTP connection to ccnd: a sender or a poller.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   batchTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// submit posts one batch of count requests and returns its admission
// sequence number and the HTTP status. Any status but 202 leaves seq at 0.
func (c *client) submit(count int) (seq uint64, status int, err error) {
	status, data, err := c.do(http.MethodPost, "/requests", []byte(fmt.Sprintf(`{"count":%d}`, count)))
	if err != nil || status != http.StatusAccepted {
		return 0, status, err
	}
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(data, &ack); err != nil {
		return 0, status, fmt.Errorf("decoding 202 body: %w", err)
	}
	return ack.Seq, status, nil
}

func (c *client) stats() (daemon.Snapshot, error) {
	var snap daemon.Snapshot
	status, data, err := c.do(http.MethodGet, "/stats", nil)
	if err != nil {
		return snap, err
	}
	if status != http.StatusOK {
		return snap, fmt.Errorf("GET /stats: status %d", status)
	}
	return snap, json.Unmarshal(data, &snap)
}

// waitSimulated polls /stats until batch seq has been simulated. It returns
// when the poll that saw it came back, and how many polls it made.
func (c *client) waitSimulated(seq uint64, deadline time.Time) (done time.Time, polls int, err error) {
	for {
		snap, err := c.stats()
		polls++
		now := time.Now()
		if err != nil {
			return now, polls, err
		}
		if uint64(snap.Totals.BatchesSimulated) >= seq {
			return now, polls, nil
		}
		if now.After(deadline) {
			return now, polls, fmt.Errorf("batch %d not simulated within %v", seq, batchTimeout)
		}
		time.Sleep(pollEvery)
	}
}

var memLine = regexp.MustCompile(`(?m)^# (Mallocs|TotalAlloc) = (\d+)$`)

// heapCounters reads ccnd's own cumulative allocation counters from its
// pprof endpoint.
func (c *client) heapCounters() (mallocs, allocated uint64, err error) {
	status, data, err := c.do(http.MethodGet, "/debug/pprof/heap?debug=1", nil)
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /debug/pprof/heap: status %d, %v", status, err)
	}
	found := 0
	for _, m := range memLine.FindAllSubmatch(data, -1) {
		v, err := strconv.ParseUint(string(m[2]), 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if string(m[1]) == "Mallocs" {
			mallocs = v
		} else {
			allocated = v
		}
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("heap profile lacks the Mallocs and TotalAlloc lines")
	}
	return mallocs, allocated, nil
}

// ccndSetup spawns a ccnd and admits a first batch: what a client pays
// before its first request is accepted. It returns once that batch has been
// simulated, so it does not overlap what is measured next.
func ccndSetup(cfg config, count int, manifest string) (*ccndProc, time.Duration, error) {
	start := time.Now()
	p, err := spawnCcnd(cfg, manifest)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(p.base)
	seq, status, err := c.submit(count)
	setup := time.Since(start)
	if err != nil || status != http.StatusAccepted {
		p.kill()
		return nil, 0, fmt.Errorf("first batch: status %d, %v", status, err)
	}
	if _, _, err := c.waitSimulated(seq, time.Now().Add(batchTimeout)); err != nil {
		p.kill()
		return nil, 0, err
	}
	return p, setup, nil
}

// loadResult is what one load phase against ccnd observed.
type loadResult struct {
	count       int       // requests per batch
	latenciesMs []float64 // of completed batches
	sent        int       // batches the generator tried to admit
	refused     int       // of those, answered 429
	failed      int       // other non-202 answers, transport errors, timeouts
	rejectMs    []float64 // round trips of the 429 answers
	wall        time.Duration
	lateMaxMs   float64       // open loop: worst send delay behind schedule
	polls       int           // GET /stats calls made while waiting for batches
	pollWall    time.Duration // time spent making them and pausing between them
	problems    []string
}

func (l *loadResult) completedRequests() float64 {
	return float64(len(l.latenciesMs) * l.count)
}

// pollIntervalMs is the achieved period of one poller: pollEvery plus the
// round trip of a GET /stats.
func (l *loadResult) pollIntervalMs() float64 {
	if l.polls == 0 {
		return 0
	}
	return l.pollWall.Seconds() * 1e3 / float64(l.polls)
}

// poissonSchedule returns n send offsets over a horizon of n/rate seconds.
// A Poisson process conditioned on its count is n sorted uniform points, so
// the offsets are seeded-Poisson arrivals whose number and span do not vary
// with the seed.
func poissonSchedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	horizon := float64(n) / rate
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * horizon * float64(time.Second))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// openLoop sends one batch at each scheduled offset over one connection,
// whether or not earlier batches have finished, while a second connection
// polls /stats. A batch's latency runs from its due time to the return of
// the poll that first saw it simulated. rec, when non-nil, records a span
// per HTTP call.
func openLoop(p *ccndProc, schedule []time.Duration, count int, rec *recorder) *loadResult {
	type inflight struct {
		seq uint64
		due time.Time
	}
	var (
		mu      sync.Mutex
		pending []inflight
		sending = true
		res     = &loadResult{count: count, sent: len(schedule)}
	)
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sender := newClient(p.base)
		for _, off := range schedule {
			due := start.Add(off)
			time.Sleep(time.Until(due))
			t0 := time.Now()
			seq, status, err := sender.submit(count)
			t1 := time.Now()
			if rec != nil {
				rec.leaf("POST /requests", 1, t0, t1)
			}
			mu.Lock()
			if late := t0.Sub(due).Seconds() * 1e3; late > res.lateMaxMs {
				res.lateMaxMs = late
			}
			switch {
			case err != nil:
				res.failed++
				res.problems = append(res.problems, "POST /requests: "+err.Error())
			case status == http.StatusTooManyRequests:
				res.refused++
				res.rejectMs = append(res.rejectMs, t1.Sub(t0).Seconds()*1e3)
			case status != http.StatusAccepted:
				res.failed++
				res.problems = append(res.problems, fmt.Sprintf("POST /requests: status %d", status))
			default:
				pending = append(pending, inflight{seq, due})
			}
			mu.Unlock()
		}
		mu.Lock()
		sending = false
		mu.Unlock()
	}()

	poller := newClient(p.base)
	pollStart := time.Now()
	last := start
	for {
		t0 := time.Now()
		snap, err := poller.stats()
		now := time.Now()
		res.polls++
		if rec != nil {
			rec.leaf("GET /stats", 1, t0, now)
		}
		mu.Lock()
		if err != nil {
			res.problems = append(res.problems, "GET /stats: "+err.Error())
			res.failed += len(pending)
			pending = nil
		}
		for len(pending) > 0 {
			head := pending[0]
			if uint64(snap.Totals.BatchesSimulated) >= head.seq {
				res.latenciesMs = append(res.latenciesMs, now.Sub(head.due).Seconds()*1e3)
				last = now
			} else if now.Sub(head.due) > batchTimeout {
				res.failed++
				res.problems = append(res.problems, fmt.Sprintf("batch %d not simulated within %v", head.seq, batchTimeout))
			} else {
				break
			}
			pending = pending[1:]
		}
		done := (!sending && len(pending) == 0) || err != nil
		mu.Unlock()
		if done {
			break
		}
		time.Sleep(pollEvery)
	}
	res.pollWall = time.Since(pollStart)
	wg.Wait()
	res.wall = last.Sub(start)
	return res
}

// load offers the workload's load shape to p for dur: the seeded open-loop
// schedule at the spec's rate, or the closed-loop clients.
func (s daemonSpec) load(p *ccndProc, seed int64, dur time.Duration, rec *recorder) *loadResult {
	if !s.openLoop {
		return closedLoop(p, saturateClients, s.count, dur, rec)
	}
	n := max(int(s.rate*dur.Seconds()), 1)
	return openLoop(p, poissonSchedule(rand.New(rand.NewSource(seed)), n, s.rate), s.count, rec)
}

// closedLoop runs clients that each admit a batch, wait until it has been
// simulated, and admit the next, until dur has passed.
func closedLoop(p *ccndProc, clients, count int, dur time.Duration, rec *recorder) *loadResult {
	var (
		mu  sync.Mutex
		res = &loadResult{count: count}
		wg  sync.WaitGroup
	)
	start := time.Now()
	last := start
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(p.base)
			for time.Since(start) < dur {
				t0 := time.Now()
				seq, status, err := c.submit(count)
				t1 := time.Now()
				if rec != nil {
					rec.leaf("POST /requests", 1, t0, t1)
				}
				var done time.Time
				polls := 0
				if err == nil && status == http.StatusAccepted {
					done, polls, err = c.waitSimulated(seq, t0.Add(batchTimeout))
				}
				mu.Lock()
				res.sent++
				if polls > 0 {
					res.polls += polls
					res.pollWall += done.Sub(t1)
				}
				switch {
				case err != nil:
					res.failed++
					res.problems = append(res.problems, err.Error())
				case status == http.StatusTooManyRequests:
					res.refused++
				case status != http.StatusAccepted:
					res.failed++
					res.problems = append(res.problems, fmt.Sprintf("POST /requests: status %d", status))
				default:
					res.latenciesMs = append(res.latenciesMs, done.Sub(t0).Seconds()*1e3)
					if done.After(last) {
						last = done
					}
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	res.wall = last.Sub(start)
	return res
}

// drain stops the child, reads the final manifest it wrote and returns its
// totals with everything that is wrong with them, given how many requests
// were admitted. Any finding fails the whole workload.
func (p *ccndProc) drain(admitted int64) (daemon.Totals, []string) {
	if err := p.stop(); err != nil {
		return daemon.Totals{}, []string{err.Error()}
	}
	data, err := os.ReadFile(p.manifest)
	if err != nil {
		return daemon.Totals{}, []string{"reading ccnd manifest: " + err.Error()}
	}
	m := &daemon.Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return daemon.Totals{}, []string{"parsing ccnd manifest: " + err.Error()}
	}
	t := m.Final.Totals
	var bad []string
	if t.Completed != admitted {
		bad = append(bad, fmt.Sprintf("completed %d requests, admitted %d", t.Completed, admitted))
	}
	if t.Failed != 0 {
		bad = append(bad, fmt.Sprintf("%d requests failed in the daemon", t.Failed))
	}
	if s := t.LocalHits + t.PeerHits + t.OriginServes; s != t.Completed {
		bad = append(bad, fmt.Sprintf("hit tiers sum to %d, completed %d", s, t.Completed))
	}
	return t, bad
}

// runDaemon measures one ccnd workload end to end, with nothing traced.
func runDaemon(w workload, cfg config) (*report, error) {
	rep := newReport(endToEnd)
	spec := w.daemon
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	manifest := filepath.Join(cfg.outDir, "manifest-"+w.Name+".json")

	// Set-up is measured on throwaway daemons first; the last one stays.
	const setups = 3
	var setupS sample
	var p *ccndProc
	for i := 0; i < setups; i++ {
		path := ""
		if i == setups-1 {
			path = manifest
		}
		proc, d, err := ccndSetup(cfg, spec.count, path)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			if err := proc.stop(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		p = proc
	}
	defer p.kill()

	c := newClient(p.base)
	before, err := c.stats()
	if err != nil {
		return nil, err
	}
	mallocs0, bytes0, err := c.heapCounters()
	if err != nil {
		return nil, err
	}

	load := spec.load(p, cfg.seed, time.Duration(cfg.seconds*float64(time.Second))/time.Duration(cfg.scale), nil)

	after, err := c.stats()
	if err != nil {
		return nil, err
	}
	mallocs1, bytes1, err := c.heapCounters()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(p.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	for _, problem := range load.problems {
		rep.fail("%s", problem)
	}
	if load.refused > 0 {
		// Neither workload offers more than the queue holds.
		rep.fail("%d batches were refused with 429", load.refused)
	}
	rep.Attempted = int64(load.sent * spec.count)
	rep.Failed = int64((load.failed + load.refused) * spec.count)

	// The rest is checked on the drained daemon's own final accounting.
	admitted := int64((load.sent - load.refused - load.failed + 1) * spec.count) // +1: the set-up batch
	t, wholesale := p.drain(admitted)
	rep.goldenKey = daemonGoldenKey(w.Name, cfg.seed, load.sent)
	rep.hits = hitTotals{t.LocalHits, t.PeerHits, t.OriginServes}
	if want, ok := cfg.golden.Daemon[rep.goldenKey]; ok && spec.openLoop && len(wholesale) == 0 && rep.hits != want {
		wholesale = append(wholesale, fmt.Sprintf("hit totals %+v differ from the golden %+v", rep.hits, want))
	}
	if len(wholesale) > 0 {
		rep.Failed = rep.Attempted
		for _, problem := range wholesale {
			rep.fail("%s", problem)
		}
	}
	if len(load.latenciesMs) == 0 {
		return nil, fmt.Errorf("no batch completed: %s", strings.Join(rep.problems, "; "))
	}

	completed := float64(after.Totals.Completed - before.Totals.Completed)
	wall := load.wall.Seconds()
	rep.set("setup_s", setupS...)
	rep.set("batch_p50_ms", load.latenciesMs...)
	rep.set("batch_p99_ms", quantile(load.latenciesMs, 0.99))
	rep.set("daemon_req_per_s", load.completedRequests()/wall)
	rep.set("peak_rss_mb", rss)
	// The sim-side metrics are the same quantities taken at the daemon:
	// what its engine completed by its own count, and what the whole ccnd
	// process allocated (HTTP plane and the polls included) per request.
	rep.set("sim_req_per_s", completed/wall)
	rep.set("allocs_per_req", float64(mallocs1-mallocs0)/completed)
	rep.set("bytes_per_req", float64(bytes1-bytes0)/completed)
	return rep, nil
}
