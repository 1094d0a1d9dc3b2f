// Package daemon hosts a live simulated CCN network as a long-running
// service: clients push request batches over an HTTP/JSON control
// plane, an elastic worker pool turns each batch into a deterministic
// arrival schedule, and a single engine goroutine replays the batches
// in admission order on the discrete-event simulator. The coordinator
// re-plans the partitioned placement every EpochRequests completed
// requests from the popularity the network actually observed, and its
// state — epoch, placement, popularity sketch — survives process
// restarts through the coord checkpoint machinery: a drained daemon's
// final checkpoint restores byte-identically.
//
// Lifecycle: Initializing (network built, nothing admitted) ->
// Running (admitting) -> Draining (admission closed, queued batches
// finishing, PIT flushed) -> Stopped (final checkpoint on disk).
// Failed is terminal from any state. The obs.Health probe mirrors the
// lifecycle so orchestration sees 503 before readiness, during drain,
// and after failure.
package daemon

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"ccncoord/internal/cache"
	"ccncoord/internal/catalog"
	"ccncoord/internal/ccn"
	"ccncoord/internal/coord"
	"ccncoord/internal/des"
	"ccncoord/internal/obs"
	"ccncoord/internal/sim"
	"ccncoord/internal/timeline"
	"ccncoord/internal/topology"
	"ccncoord/internal/workload"
)

// State is the daemon's lifecycle phase.
type State int

const (
	StateInitializing State = iota
	StateRunning
	StateDraining
	StateStopped
	StateFailed
)

// String returns the lowercase phase name used in HTTP responses.
func (s State) String() string {
	switch s {
	case StateInitializing:
		return "initializing"
	case StateRunning:
		return "running"
	case StateDraining:
		return "draining"
	case StateStopped:
		return "stopped"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Sentinel admission errors; the HTTP layer maps them to status codes.
var (
	// ErrOverloaded reports a full admission queue (429 Retry-After).
	ErrOverloaded = errors.New("daemon: admission queue full")
	// ErrNotAdmitting reports a daemon outside the Running state (503).
	ErrNotAdmitting = errors.New("daemon: not admitting requests")
)

// WorkloadParams is the live-tunable request workload: batches admitted
// after a retune sample from the new distribution, batches already
// queued keep the parameters they were admitted under.
type WorkloadParams struct {
	// ZipfS is the Zipf popularity exponent contents are drawn with.
	ZipfS float64 `json:"zipf_s"`
	// MeanInterarrivalMs is the mean of the exponential gap between
	// consecutive arrivals in a batch (simulated ms).
	MeanInterarrivalMs float64 `json:"mean_interarrival_ms"`
}

func (p WorkloadParams) validate() error {
	if !(p.ZipfS > 0) {
		return fmt.Errorf("daemon: zipf exponent must be positive, got %v", p.ZipfS)
	}
	if !(p.MeanInterarrivalMs > 0) {
		return fmt.Errorf("daemon: mean inter-arrival must be positive, got %v ms", p.MeanInterarrivalMs)
	}
	return nil
}

// Config describes the hosted network and the daemon's service knobs.
// Zero fields take the documented defaults at New.
type Config struct {
	// Topology is the hosted router graph. Required.
	Topology *topology.Graph
	// CatalogSize is the number of distinct contents. Default 20000.
	CatalogSize int64
	// Capacity is each router's total storage c. Default 150.
	Capacity int64
	// Coordinated is the coordinated slot count x per router, in
	// [0, Capacity]. Default Capacity/2.
	Coordinated int64
	// AccessLatency is the one-way client access latency (ms).
	// Default 5.
	AccessLatency float64
	// OriginLatency is the one-way origin uplink latency (ms).
	// Default 60.
	OriginLatency float64
	// OriginGateway attaches the origin uplink at one router; any
	// negative value attaches a uniform uplink at every router. Note
	// the zero value means router 0 — pass -1 for the uniform default.
	OriginGateway int
	// Workload is the initial request distribution. Defaults: s=0.8,
	// 1 ms mean inter-arrival.
	Workload WorkloadParams
	// Seed decorrelates everything stochastic; per-batch streams are
	// derived from it by seq-indexed mixing. Default 1.
	Seed int64
	// QueueDepth bounds the admission queue in batches; a full queue
	// rejects with ErrOverloaded. Default 64.
	QueueDepth int
	// MaxBatch bounds one submission's request count. Default 100000.
	MaxBatch int
	// Workers is the initial prep worker-pool size, elastically
	// rescalable at runtime in [1, MaxWorkers]. Default 2.
	Workers int
	// EpochRequests is the number of completed requests between
	// coordinator re-plans; negative disables re-planning. Default
	// 50000.
	EpochRequests int64
	// CheckpointPath, when non-empty, persists the coordinator state
	// there after every re-plan and at drain, and restores from it at
	// New when the file exists.
	CheckpointPath string
	// TimeRatio paces the engine at this many simulated ms per
	// wall-clock ms; 0 runs as fast as possible.
	TimeRatio float64
	// TimelineCapacity bounds the telemetry timeline: the ring retains
	// this many epoch records, oldest-evicted. Default 1024.
	TimelineCapacity int
}

// fill applies defaults and validates.
func (c *Config) fill() error {
	if c.Topology == nil {
		return fmt.Errorf("daemon: config needs a topology")
	}
	if c.Topology.N() < 1 {
		return fmt.Errorf("daemon: topology has no routers")
	}
	if c.CatalogSize == 0 {
		c.CatalogSize = 20000
	}
	if c.CatalogSize < 1 {
		return fmt.Errorf("daemon: catalog size must be positive, got %d", c.CatalogSize)
	}
	if c.Capacity == 0 {
		c.Capacity = 150
	}
	if c.Capacity < 1 {
		return fmt.Errorf("daemon: capacity must be positive, got %d", c.Capacity)
	}
	if c.Coordinated == 0 {
		c.Coordinated = c.Capacity / 2
	}
	if c.Coordinated < 0 || c.Coordinated > c.Capacity {
		return fmt.Errorf("daemon: coordinated slots %d outside [0, %d]", c.Coordinated, c.Capacity)
	}
	if c.AccessLatency == 0 {
		c.AccessLatency = 5
	}
	if !(c.AccessLatency > 0) {
		return fmt.Errorf("daemon: access latency must be positive, got %v", c.AccessLatency)
	}
	if c.OriginLatency == 0 {
		c.OriginLatency = 60
	}
	if !(c.OriginLatency > 0) {
		return fmt.Errorf("daemon: origin latency must be positive, got %v", c.OriginLatency)
	}
	if c.OriginGateway >= c.Topology.N() {
		return fmt.Errorf("daemon: origin gateway %d outside topology (%d routers)", c.OriginGateway, c.Topology.N())
	}
	if c.Workload.ZipfS == 0 {
		c.Workload.ZipfS = 0.8
	}
	if c.Workload.MeanInterarrivalMs == 0 {
		c.Workload.MeanInterarrivalMs = 1
	}
	if err := c.Workload.validate(); err != nil {
		return err
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("daemon: queue depth must be positive, got %d", c.QueueDepth)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 100000
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("daemon: max batch must be positive, got %d", c.MaxBatch)
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Workers < 1 || c.Workers > MaxWorkers {
		return fmt.Errorf("daemon: workers %d outside [1, %d]", c.Workers, MaxWorkers)
	}
	if c.EpochRequests == 0 {
		c.EpochRequests = 50000
	}
	if c.TimeRatio < 0 {
		return fmt.Errorf("daemon: time ratio must be non-negative, got %v", c.TimeRatio)
	}
	if c.TimelineCapacity == 0 {
		c.TimelineCapacity = 1024
	}
	if c.TimelineCapacity < 1 {
		return fmt.Errorf("daemon: timeline capacity must be positive, got %d", c.TimelineCapacity)
	}
	return nil
}

// batch is one admitted unit of client load.
type batch struct {
	seq    uint64 // 1-based admission order; the engine replays in seq order
	count  int
	router int // first-hop router, or -1 to spread uniformly
	params WorkloadParams
}

// arrival is one prepared request.
type arrival struct {
	router  topology.NodeID
	content catalog.ID
	gap     float64 // ms since the previous arrival in the batch
}

// prepared is a batch turned into a concrete arrival schedule.
type prepared struct {
	seq  uint64
	reqs []arrival
	err  error
}

// batchCursor replays a prepared batch as one self-rescheduling arrival
// event — the same lazy layout sim.Run uses — so a batch costs the
// engine one queued arrival at a time instead of one closure and one
// heap slot per request. The daemon owns a single cursor; its callbacks
// are bound once in New.
type batchCursor struct {
	reqs []arrival
	next int     // index of the arrival the pending tick issues
	t    float64 // that arrival's virtual time
	err  error   // first issue or scheduling failure; ends the replay

	tick func()                  // d.issueNext
	done func(ccn.RequestResult) // d.onComplete
}

// Daemon is one hosted network plus its service machinery. Construct
// with New, then Start; Drain ends the service.
type Daemon struct {
	cfg      Config
	health   *obs.Health
	progress *obs.Progress
	timeline *timeline.Ring

	// mu guards the lifecycle state and admission bookkeeping.
	mu               sync.Mutex
	state            State
	failReason       string
	drainReason      string
	admitClosed      bool
	nextSeq          uint64
	admittedBatches  int64
	admittedRequests int64
	rejected         int64
	workload         WorkloadParams
	pool             *Pool

	admitq     chan batch
	readyq     chan prepared
	engineDone chan struct{}

	// famMu guards the Zipf family cache shared by prep workers.
	famMu    sync.Mutex
	families map[float64]*workload.ZipfFamily

	// Engine-goroutine-only simulation state.
	eng         *des.Engine
	net         *ccn.Network
	routers     []topology.NodeID
	parts       []*cache.Partitioned
	coordAsg    *coord.Assignment
	localSet    []catalog.ID
	coordinator *coord.Centralized
	epoch       int64
	restored    bool
	counts      []int64      // cumulative popularity by content id, as of the last fold (checkpointed)
	tally       *coord.Tally // observations since the last fold
	sinceReplan int64
	eCompleted  int64
	eFailed     int64
	eLocal      int64
	ePeer       int64
	eOrigin     int64
	eLatencySum float64
	eHopsSum    int64
	cursor      batchCursor

	tot totals
}

// totals is the snapshot-visible accounting, folded in at batch
// granularity by the engine goroutine and read by the HTTP plane.
type totals struct {
	mu               sync.Mutex
	processedBatches int64
	completed        int64
	failed           int64
	local            int64
	peer             int64
	origin           int64
	latencySum       float64
	hopsSum          int64
	simTime          float64
	epoch            int64
	replans          int64
	coordMessages    int64
	checkpoints      int64
	events           uint64
	pendingPeak      int
}

// New builds the hosted network in the Initializing state. When
// cfg.CheckpointPath names an existing file, the coordinator state —
// epoch, placement, popularity sketch — is restored from it instead of
// provisioning by rank, so a restarted daemon resumes exactly where
// the drained one stopped.
func New(cfg Config, health *obs.Health, progress *obs.Progress) (*Daemon, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := cfg.Topology.N()
	cat, err := catalog.New(cfg.CatalogSize, "/ccnd")
	if err != nil {
		return nil, fmt.Errorf("daemon: building catalog: %w", err)
	}
	d := &Daemon{
		cfg:        cfg,
		health:     health,
		progress:   progress,
		timeline:   timeline.NewRing(cfg.TimelineCapacity),
		workload:   cfg.Workload,
		admitq:     make(chan batch, cfg.QueueDepth),
		readyq:     make(chan prepared, cfg.QueueDepth),
		engineDone: make(chan struct{}),
		families:   make(map[float64]*workload.ZipfFamily),
		eng:        &des.Engine{},
		routers:    make([]topology.NodeID, n),
		parts:      make([]*cache.Partitioned, n),
	}
	d.cursor.tick, d.cursor.done = d.issueNext, d.onComplete
	for i := range d.routers {
		d.routers[i] = topology.NodeID(i)
	}
	if d.tally, err = coord.NewTally(n, cfg.CatalogSize); err != nil {
		return nil, fmt.Errorf("daemon: building tally: %w", err)
	}
	d.counts = make([]int64, cfg.CatalogSize+1)

	if err := d.provision(); err != nil {
		return nil, err
	}

	// Every router replicates the same local set; a Static is immutable,
	// so one store serves them all.
	local, err := cache.NewStatic(d.localSet)
	if err != nil {
		return nil, fmt.Errorf("daemon: building local store: %w", err)
	}
	net, err := ccn.NewNetwork(d.eng, cfg.Topology, cat, ccn.Options{
		AccessLatency: cfg.AccessLatency,
		Stores: func(id topology.NodeID) (cache.Store, error) {
			coordStore, err := cache.NewStatic(d.coordAsg.Contents(id))
			if err != nil {
				return nil, err
			}
			p, err := cache.NewPartitioned(local, coordStore)
			if err != nil {
				return nil, err
			}
			d.parts[id] = p
			return p, nil
		},
		Mode:      ccn.CacheNone,
		Directory: d.coordAsg,
	})
	if err != nil {
		return nil, fmt.Errorf("daemon: building network: %w", err)
	}
	if cfg.OriginGateway >= 0 {
		err = net.AttachOriginAt(topology.NodeID(cfg.OriginGateway), cfg.OriginLatency)
	} else {
		err = net.AttachOriginUniform(cfg.OriginLatency)
	}
	if err != nil {
		return nil, fmt.Errorf("daemon: attaching origin: %w", err)
	}
	d.net = net

	// The coordination unit cost w is the slowest router pair, which the
	// diameter bounds; a single-router graph degenerates to 1 ms.
	w := cfg.Topology.DiameterEstimate()
	if !(w > 0) {
		w = 1
	}
	d.coordinator, err = coord.NewCentralized(d.routers, w)
	if err != nil {
		return nil, fmt.Errorf("daemon: building coordinator: %w", err)
	}
	d.tot.epoch = d.epoch
	return d, nil
}

// provision installs the initial placement: restored from the
// checkpoint when one exists, otherwise the paper's rank split (top
// c-x replicated locally, next n*x striped).
func (d *Daemon) provision() error {
	if path := d.cfg.CheckpointPath; path != "" {
		if _, err := os.Stat(path); err == nil {
			return d.restore(path)
		}
	}
	n := int64(len(d.routers))
	localSlots := d.cfg.Capacity - d.cfg.Coordinated
	localHi := min(localSlots, d.cfg.CatalogSize)
	d.localSet = cache.RankRange(1, localHi)
	var band []catalog.ID
	if bandHi := min(localSlots+n*d.cfg.Coordinated, d.cfg.CatalogSize); bandHi > localHi {
		band = cache.RankRange(localHi+1, bandHi)
	}
	asg, err := coord.StripeByRank(d.routers, band, d.cfg.Coordinated)
	if err != nil {
		return fmt.Errorf("daemon: striping initial placement: %w", err)
	}
	d.coordAsg = asg
	return nil
}

// restore adopts a checkpointed coordinator state as the live one.
func (d *Daemon) restore(path string) error {
	cp, err := coord.LoadCheckpoint(path)
	if err != nil {
		return fmt.Errorf("daemon: restoring: %w", err)
	}
	if cp.Placement == nil || cp.Placement.Assignment == nil {
		return fmt.Errorf("daemon: checkpoint %s has no placement", path)
	}
	// Every assigned content must belong to a router this topology has;
	// a shortfall means the checkpoint was taken against a different
	// network.
	visible := 0
	for _, r := range d.routers {
		visible += len(cp.Placement.Assignment.Contents(r))
	}
	if visible != cp.Placement.Assignment.Size() {
		return fmt.Errorf("daemon: checkpoint %s assigns contents to routers outside this %d-router topology", path, len(d.routers))
	}
	d.coordAsg = cp.Placement.Assignment
	d.localSet = append([]catalog.ID(nil), cp.Placement.LocalSet...)
	d.epoch = cp.Epoch
	for id, count := range cp.Stats {
		if id < 1 || int64(id) > d.cfg.CatalogSize {
			return fmt.Errorf("daemon: checkpoint %s counts content %d, outside this catalog [1, %d]", path, id, d.cfg.CatalogSize)
		}
		d.counts[id] = count
	}
	d.restored = true
	return nil
}

// Restored reports whether New adopted a checkpoint.
func (d *Daemon) Restored() bool { return d.restored }

// Epoch returns the coordinator's current placement epoch.
func (d *Daemon) Epoch() int64 {
	d.tot.mu.Lock()
	defer d.tot.mu.Unlock()
	return d.tot.epoch
}

// Done returns a channel closed when the engine has fully stopped
// (drain complete or failure).
func (d *Daemon) Done() <-chan struct{} { return d.engineDone }

// State returns the lifecycle phase and, for Draining/Failed, its
// reason.
func (d *Daemon) State() (State, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch d.state {
	case StateFailed:
		return d.state, d.failReason
	case StateDraining, StateStopped:
		return d.state, d.drainReason
	}
	return d.state, ""
}

// Start begins admitting: it spawns the prep pool and the engine
// goroutine and flips the health probe to ready.
func (d *Daemon) Start() error {
	d.mu.Lock()
	if d.state != StateInitializing {
		state := d.state
		d.mu.Unlock()
		return fmt.Errorf("daemon: Start on a %s daemon", state)
	}
	d.state = StateRunning
	d.pool = NewPool(d.cfg.Workers, d.admitq, d.readyq, d.prepare)
	d.mu.Unlock()
	// The pool outlives admission: once the admission queue closes and
	// every worker has drained it, the ready queue closes and the engine
	// loop finishes whatever ordering buffer remains.
	go func() {
		d.pool.Wait()
		close(d.readyq)
	}()
	go d.engineLoop()
	if d.health != nil {
		d.health.Ready()
	}
	return nil
}

// Submit admits one batch of count requests at the given first-hop
// router (-1 spreads uniformly). It returns the batch's admission
// sequence number and the queue length behind it. A full queue returns
// ErrOverloaded; any state but Running returns ErrNotAdmitting.
func (d *Daemon) Submit(count, router int) (uint64, int, error) {
	if count < 1 {
		return 0, 0, fmt.Errorf("daemon: batch count must be >= 1, got %d", count)
	}
	if count > d.cfg.MaxBatch {
		return 0, 0, fmt.Errorf("daemon: batch count %d exceeds the per-batch cap %d", count, d.cfg.MaxBatch)
	}
	if router >= d.cfg.Topology.N() {
		return 0, 0, fmt.Errorf("daemon: unknown router %d (topology has %d)", router, d.cfg.Topology.N())
	}
	if router < 0 {
		router = -1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != StateRunning {
		return 0, 0, fmt.Errorf("%w (daemon is %s)", ErrNotAdmitting, d.state)
	}
	b := batch{seq: d.nextSeq + 1, count: count, router: router, params: d.workload}
	select {
	case d.admitq <- b:
		d.nextSeq++
		d.admittedBatches++
		d.admittedRequests += int64(count)
		return b.seq, len(d.admitq), nil
	default:
		d.rejected++
		return 0, 0, ErrOverloaded
	}
}

// SetWorkload retunes the request distribution for batches admitted
// from now on. Returns the effective parameters.
func (d *Daemon) SetWorkload(p WorkloadParams) (WorkloadParams, error) {
	if err := p.validate(); err != nil {
		return WorkloadParams{}, err
	}
	// Surface an unbuildable distribution to the caller instead of
	// failing the first batch that samples it.
	if _, err := d.family(p.ZipfS); err != nil {
		return WorkloadParams{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != StateInitializing && d.state != StateRunning {
		return WorkloadParams{}, fmt.Errorf("%w (daemon is %s)", ErrNotAdmitting, d.state)
	}
	d.workload = p
	return p, nil
}

// Workload returns the distribution new batches are admitted under.
func (d *Daemon) Workload() WorkloadParams {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.workload
}

// Scale resizes the prep worker pool to n in [1, MaxWorkers] and
// returns the new target and currently live worker counts.
func (d *Daemon) Scale(n int) (target, active int, err error) {
	d.mu.Lock()
	pool := d.pool
	d.mu.Unlock()
	if pool == nil {
		return 0, 0, fmt.Errorf("daemon: pool not started")
	}
	return pool.Scale(n)
}

// PoolStatus returns the prep pool's target and live worker counts
// (the configured width before Start).
func (d *Daemon) PoolStatus() (target, active int) {
	d.mu.Lock()
	pool := d.pool
	d.mu.Unlock()
	if pool == nil {
		return d.cfg.Workers, 0
	}
	return pool.Status()
}

// Drain stops admission, lets every queued batch finish (flushing the
// PIT — the engine runs each batch to quiescence), saves the final
// checkpoint, and blocks until the engine has stopped. Safe to call
// from any goroutine and more than once.
func (d *Daemon) Drain(reason string) error {
	d.mu.Lock()
	switch d.state {
	case StateInitializing:
		d.mu.Unlock()
		return fmt.Errorf("daemon: Drain before Start")
	case StateRunning:
		d.state = StateDraining
		d.drainReason = reason
		if !d.admitClosed {
			d.admitClosed = true
			close(d.admitq)
		}
		d.mu.Unlock()
		if d.health != nil {
			d.health.Draining(reason)
		}
	default:
		d.mu.Unlock()
	}
	<-d.engineDone
	return nil
}

// fail marks the daemon Failed and stops admission. Terminal.
func (d *Daemon) fail(err error) {
	d.mu.Lock()
	if d.state == StateFailed {
		d.mu.Unlock()
		return
	}
	d.state = StateFailed
	d.failReason = err.Error()
	if !d.admitClosed {
		d.admitClosed = true
		close(d.admitq)
	}
	d.mu.Unlock()
	if d.health != nil {
		d.health.Fail(err.Error())
	}
}

// family returns the cached Zipf sampler family for exponent s,
// building it on first use. Workers share the cache: the expensive
// per-(s, N) setup happens once per retune, not once per batch.
func (d *Daemon) family(s float64) (*workload.ZipfFamily, error) {
	d.famMu.Lock()
	defer d.famMu.Unlock()
	if f, ok := d.families[s]; ok {
		return f, nil
	}
	f, err := workload.NewZipfFamily(s, d.cfg.CatalogSize)
	if err != nil {
		return nil, err
	}
	d.families[s] = f
	return f, nil
}

// prepare turns a batch into its arrival schedule on a worker
// goroutine. Streams are seeded by mixing the daemon seed with the
// batch's admission sequence, so a schedule depends only on (seed,
// seq, params, count) — never on which worker prepared it or in what
// order — keeping the replayed load deterministic under any pool size.
func (d *Daemon) prepare(b batch) prepared {
	fam, err := d.family(b.params.ZipfS)
	if err != nil {
		return prepared{seq: b.seq, err: err}
	}
	gen, err := fam.Gen(sim.WorkloadSeed(d.cfg.Seed, int(b.seq)))
	if err != nil {
		return prepared{seq: b.seq, err: err}
	}
	rng := rand.New(rand.NewSource(sim.ArrivalSeed(d.cfg.Seed, int(b.seq))))
	n := d.cfg.Topology.N()
	reqs := make([]arrival, b.count)
	for i := range reqs {
		r := b.router
		if r < 0 {
			r = rng.Intn(n)
		}
		reqs[i] = arrival{
			router:  topology.NodeID(r),
			content: gen.Next(),
			gap:     rng.ExpFloat64() * b.params.MeanInterarrivalMs,
		}
	}
	return prepared{seq: b.seq, reqs: reqs}
}

// engineLoop is the single simulation goroutine: it reorders prepared
// batches back into admission order (workers finish out of order) and
// replays each on the engine. The DES engine is single-threaded by
// design, so all network and coordinator state is confined here.
func (d *Daemon) engineLoop() {
	defer close(d.engineDone)
	next := uint64(1)
	pending := make(map[uint64]prepared)
	runReady := func() {
		for {
			p, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			next++
			d.runBatch(p)
		}
	}
	for pr := range d.readyq {
		pending[pr.seq] = pr
		runReady()
	}
	// The ready queue closed with every admitted batch emitted, so the
	// ordering buffer is contiguous from next.
	runReady()
	d.finish()
}

// runBatch schedules one batch's arrivals and runs the engine to
// quiescence, so every request — including its PIT state — completes
// before the next batch starts.
func (d *Daemon) runBatch(p prepared) {
	if p.err != nil {
		d.fail(fmt.Errorf("daemon: preparing batch %d: %w", p.seq, p.err))
		return
	}
	d.mu.Lock()
	failed := d.state == StateFailed
	d.mu.Unlock()
	if failed {
		return // keep consuming so the pool never wedges on a full queue
	}
	if d.progress != nil {
		d.progress.SimStarted()
	}
	start := d.eng.Now()
	c := &d.cursor
	c.reqs, c.next, c.t, c.err = p.reqs, 0, start, nil
	if len(c.reqs) > 0 {
		c.t += c.reqs[0].gap
		c.err = d.eng.At(c.t, c.tick)
	}
	d.eng.Run()
	c.reqs = nil
	if d.progress != nil {
		d.progress.SimFinished(int64(len(p.reqs)))
	}
	if c.err != nil {
		d.fail(fmt.Errorf("daemon: batch %d: %w", p.seq, c.err))
		return
	}

	d.tot.mu.Lock()
	d.tot.processedBatches++
	d.tot.completed = d.eCompleted
	d.tot.failed = d.eFailed
	d.tot.local = d.eLocal
	d.tot.peer = d.ePeer
	d.tot.origin = d.eOrigin
	d.tot.latencySum = d.eLatencySum
	d.tot.hopsSum = d.eHopsSum
	d.tot.simTime = d.eng.Now()
	// The engine's own gauges are engine-goroutine state; fold them into
	// the snapshot-visible accounting here, at batch granularity, so the
	// HTTP plane never reads the engine directly.
	d.tot.events = d.eng.Processed()
	d.tot.pendingPeak = d.eng.PendingPeak()
	d.tot.mu.Unlock()

	if d.cfg.EpochRequests > 0 && d.sinceReplan >= d.cfg.EpochRequests {
		d.replan()
	}
	if d.cfg.TimeRatio > 0 {
		advance := d.eng.Now() - start
		time.Sleep(time.Duration(advance / d.cfg.TimeRatio * float64(time.Millisecond)))
	}
}

// issueNext is the cursor's arrival event: issue the due request, then
// queue the tick for the one after it.
func (d *Daemon) issueNext() {
	c := &d.cursor
	a := c.reqs[c.next]
	c.next++
	if c.err = d.net.Request(a.router, a.content, c.done); c.err != nil {
		return
	}
	if c.next < len(c.reqs) {
		c.t += c.reqs[c.next].gap
		c.err = d.eng.At(c.t, c.tick)
	}
}

// onComplete tallies one finished request. Runs on the engine
// goroutine inside Run, so it touches only engine-side state.
func (d *Daemon) onComplete(r ccn.RequestResult) {
	d.sinceReplan++
	if r.Failed {
		d.eFailed++
		return
	}
	d.eCompleted++
	d.tally.Observe(r.Router, r.Content)
	if d.cfg.EpochRequests < 0 && d.tally.Len() >= foldChunk {
		d.fold()
	}
	switch r.ServedBy {
	case ccn.ServedLocal:
		d.eLocal++
	case ccn.ServedPeer:
		d.ePeer++
	case ccn.ServedOrigin:
		d.eOrigin++
	}
	d.eLatencySum += r.Latency()
	d.eHopsSum += int64(r.Hops)
}

// foldChunk bounds the tally when re-planning is off and no epoch ever
// drains it: every foldChunk observations fold into the cumulative
// counts.
const foldChunk = 1 << 16

// fold drains the tally into the cumulative popularity counts and
// returns the drained observations in coordinator form.
func (d *Daemon) fold() coord.Folded {
	f := d.tally.Fold()
	for _, c := range f.Counts {
		d.counts[c.ID] += c.N
	}
	return f
}

// replan runs one coordination epoch from the popularity each router
// observed since the last one, installs the new placement into the
// live stores and directory, checkpoints, and appends the epoch's
// telemetry record — measured protocol cost next to the model's
// w*n*x bound — to the timeline.
func (d *Daemon) replan() {
	wallStart := time.Now()
	epochRequests := d.sinceReplan
	observed := d.fold()
	localSlots := d.cfg.Capacity - d.cfg.Coordinated
	placement, cost, err := d.coordinator.RunEpochCounts(observed.Counts, localSlots, d.cfg.Coordinated)
	if err != nil {
		d.fail(fmt.Errorf("daemon: re-planning epoch %d: %w", d.epoch+1, err))
		return
	}
	// Churn must be measured before install: Adopt mutates the live
	// assignment in place (the data plane holds its pointer).
	churn := coord.Churn(d.coordAsg, placement.Assignment)
	if err := d.install(placement); err != nil {
		d.fail(fmt.Errorf("daemon: installing epoch %d placement: %w", d.epoch+1, err))
		return
	}
	d.epoch++
	d.sinceReplan = 0
	d.tot.mu.Lock()
	d.tot.epoch = d.epoch
	d.tot.replans++
	d.tot.coordMessages += cost.Total()
	d.tot.mu.Unlock()

	// The model budgets one state report up and one directive down per
	// coordinated slot per router: 2*n*x messages, w*n*x latency-weighted
	// cost (the paper's W(x) without the fixed term).
	n := int64(len(d.routers))
	w := d.coordinator.UnitCost()
	d.timeline.Append(timeline.EpochRecord{
		Epoch:            d.epoch,
		SimTimeMs:        d.eng.Now(),
		Requests:         epochRequests,
		Messages:         cost.Total(),
		MessagesUp:       cost.MessagesUp,
		MessagesDown:     cost.MessagesDown,
		BoundMessages:    2 * n * d.cfg.Coordinated,
		UnitCostMs:       w,
		BoundCostMs:      w * float64(n) * float64(d.cfg.Coordinated),
		ConvergenceMs:    cost.Convergence,
		LocalSlots:       localSlots,
		CoordSlots:       d.cfg.Coordinated,
		Level:            float64(d.cfg.Coordinated) / float64(d.cfg.Capacity),
		Churn:            churn,
		ReportedContents: observed.Reported,
		MaxReport:        observed.MaxReport,
		WallMs:           float64(time.Since(wallStart)) / float64(time.Millisecond),
	})

	if d.cfg.CheckpointPath != "" {
		if err := d.checkpoint(); err != nil {
			d.fail(err)
		}
	}
}

// Timeline returns the daemon's telemetry timeline ring. Safe for
// concurrent use; the HTTP plane and Prometheus exposition read it
// while the engine appends.
func (d *Daemon) Timeline() *timeline.Ring { return d.timeline }

// install makes a placement live: the directory is mutated in place
// (the data plane holds the assignment pointer) and every router's
// static store parts are rebuilt, mirroring the repair path.
func (d *Daemon) install(p *coord.Placement) error {
	if err := d.coordAsg.Adopt(p.Assignment); err != nil {
		return err
	}
	d.localSet = append([]catalog.ID(nil), p.LocalSet...)
	local, err := cache.NewStatic(d.localSet)
	if err != nil {
		return err
	}
	for i, part := range d.parts {
		coordStore, err := cache.NewStatic(d.coordAsg.Contents(topology.NodeID(i)))
		if err != nil {
			return err
		}
		part.Local, part.Coordinated = local, coordStore
	}
	return nil
}

// checkpoint persists the coordinator state atomically. The write is
// byte-deterministic, so a restore followed by an idle drain rewrites
// the identical file — the restart-equivalence property the lifecycle
// tests and CI assert.
func (d *Daemon) checkpoint() error {
	// The sketch covers every completion, including the partial epoch
	// still in the tally at the drain checkpoint (after a re-plan the
	// tally is already empty).
	d.fold()
	stats := make(map[catalog.ID]int64)
	for id, count := range d.counts {
		if count != 0 {
			stats[catalog.ID(id)] = count
		}
	}
	cp := &coord.Checkpoint{
		Epoch:     d.epoch,
		Placement: &coord.Placement{LocalSet: d.localSet, Assignment: d.coordAsg},
		Stats:     stats,
	}
	if err := coord.SaveCheckpoint(d.cfg.CheckpointPath, cp); err != nil {
		return fmt.Errorf("daemon: checkpointing: %w", err)
	}
	d.tot.mu.Lock()
	d.tot.checkpoints++
	d.tot.mu.Unlock()
	return nil
}

// finish runs after the last batch: final checkpoint, terminal state.
func (d *Daemon) finish() {
	d.mu.Lock()
	failed := d.state == StateFailed
	d.mu.Unlock()
	if !failed && d.cfg.CheckpointPath != "" {
		if err := d.checkpoint(); err != nil {
			d.fail(fmt.Errorf("daemon: final %w", err))
			return
		}
	}
	if failed {
		return
	}
	d.mu.Lock()
	d.state = StateStopped
	reason := d.drainReason
	d.mu.Unlock()
	if d.health != nil {
		msg := "drained"
		if reason != "" {
			msg = "drained (" + reason + ")"
		}
		d.health.Draining(msg)
	}
}
