package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ccncoord/internal/obs"
	"ccncoord/internal/topology"
)

// testConfig is a small hosted network that completes quickly.
func testConfig(t testing.TB) Config {
	t.Helper()
	g, err := topology.Ring(4, 10)
	if err != nil {
		t.Fatalf("building ring: %v", err)
	}
	return Config{
		Topology:      g,
		CatalogSize:   500,
		Capacity:      20,
		Coordinated:   10,
		OriginGateway: -1,
		EpochRequests: 300,
		Seed:          7,
	}
}

func mustStart(t *testing.T, cfg Config, health *obs.Health) *Daemon {
	t.Helper()
	d, err := New(cfg, health, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return d
}

func submit(t *testing.T, d *Daemon, count, router int) uint64 {
	t.Helper()
	seq, _, err := d.Submit(count, router)
	if err != nil {
		t.Fatalf("Submit(%d, %d): %v", count, router, err)
	}
	return seq
}

// TestLifecycleAdmitDrainCheckpointRestore is the core restart
// equivalence property: admit load, drain, restart from the
// checkpoint, drain idle — the coordinator state must round-trip
// byte-identically and the restored daemon must resume at the same
// epoch.
func TestLifecycleAdmitDrainCheckpointRestore(t *testing.T) {
	cfg := testConfig(t)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")

	d := mustStart(t, cfg, nil)
	submit(t, d, 400, -1)
	submit(t, d, 400, 2)
	if err := d.Drain("test drain"); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if state, _ := d.State(); state != StateStopped {
		t.Fatalf("state after drain = %v, want stopped", state)
	}
	snap := d.Snapshot()
	if got := snap.Totals.Completed + snap.Totals.Failed; got != 800 {
		t.Errorf("completed+failed = %d, want all 800 admitted requests resolved", got)
	}
	if snap.Totals.RequestsAdmitted != 800 || snap.Totals.BatchesSimulated != 2 {
		t.Errorf("totals = %+v, want 800 requests over 2 batches", snap.Totals)
	}
	if snap.Coordination.Epoch < 1 || snap.Coordination.Replans < 1 {
		t.Errorf("coordination = %+v, want at least one re-plan of the 800-request run with EpochRequests=300", snap.Coordination)
	}
	if snap.Coordination.Checkpoints != snap.Coordination.Replans+1 {
		t.Errorf("checkpoints = %d, want one per re-plan plus the final drain checkpoint (%d)",
			snap.Coordination.Checkpoints, snap.Coordination.Replans+1)
	}
	before, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("reading checkpoint: %v", err)
	}

	// Restart from the checkpoint; an idle drain must rewrite the
	// identical bytes.
	d2 := mustStart(t, cfg, nil)
	if !d2.Restored() {
		t.Fatal("restarted daemon did not restore the checkpoint")
	}
	if d2.Epoch() != snap.Coordination.Epoch {
		t.Errorf("restored epoch = %d, want %d", d2.Epoch(), snap.Coordination.Epoch)
	}
	if err := d2.Drain("idle"); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	after, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatalf("re-reading checkpoint: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Error("restore + idle drain did not rewrite a byte-identical checkpoint")
	}
}

// TestRestoreRejectsForeignTopology ensures a checkpoint taken against
// a larger network cannot be restored into a smaller one.
func TestRestoreRejectsForeignTopology(t *testing.T) {
	big := testConfig(t)
	g, err := topology.Ring(8, 10)
	if err != nil {
		t.Fatalf("building ring: %v", err)
	}
	big.Topology = g
	big.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.json")
	d := mustStart(t, big, nil)
	submit(t, d, 200, -1)
	if err := d.Drain(""); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	small := testConfig(t) // 4 routers
	small.CheckpointPath = big.CheckpointPath
	if _, err := New(small, nil, nil); err == nil || !strings.Contains(err.Error(), "outside this") {
		t.Errorf("restoring an 8-router checkpoint into 4 routers: err = %v, want topology mismatch", err)
	}
}

// TestHealthTransitions mirrors the lifecycle into the readiness
// probe: 503 initializing -> 200 ok -> 503 draining.
func TestHealthTransitions(t *testing.T) {
	cfg := testConfig(t)
	health := obs.NewHealth()
	d, err := New(cfg, health, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if state, _ := health.State(); state != obs.HealthInitializing {
		t.Errorf("health before Start = %v, want initializing", state)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if state, _ := health.State(); state != obs.HealthReady {
		t.Errorf("health after Start = %v, want ready", state)
	}
	submit(t, d, 100, -1)
	if err := d.Drain("bye"); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	state, reason := health.State()
	if state != obs.HealthDraining {
		t.Errorf("health after drain = %v, want draining", state)
	}
	if !strings.Contains(reason, "drained") {
		t.Errorf("drained health reason = %q, want it to say drained", reason)
	}
	if _, _, err := d.Submit(1, -1); !errors.Is(err, ErrNotAdmitting) {
		t.Errorf("Submit after drain: err = %v, want ErrNotAdmitting", err)
	}
}

// TestSubmitOverload fills the bounded admission pipeline behind a
// paced engine and expects ErrOverloaded.
func TestSubmitOverload(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 1
	cfg.Workers = 1
	cfg.EpochRequests = -1
	cfg.TimeRatio = 0.5 // ~2 wall ms per simulated ms: each batch lingers
	d := mustStart(t, cfg, nil)
	overloaded := false
	for i := 0; i < 64 && !overloaded; i++ {
		_, _, err := d.Submit(50, -1)
		switch {
		case err == nil:
		case errors.Is(err, ErrOverloaded):
			overloaded = true
		default:
			t.Fatalf("Submit: %v", err)
		}
	}
	if !overloaded {
		t.Error("64 rapid submissions against a depth-1 queue never overloaded")
	}
	if got := d.Snapshot().Totals.RequestsRejected; overloaded && got < 1 {
		t.Errorf("rejected count = %d after an overload", got)
	}
	if err := d.Drain(""); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	snap := d.Snapshot()
	if snap.Totals.Completed+snap.Totals.Failed != snap.Totals.RequestsAdmitted {
		t.Errorf("drain left requests unresolved: %+v", snap.Totals)
	}
}

// TestWorkloadRetune checks live retuning applies to new batches and
// rejects invalid parameters.
func TestWorkloadRetune(t *testing.T) {
	d := mustStart(t, testConfig(t), nil)
	want := WorkloadParams{ZipfS: 1.2, MeanInterarrivalMs: 0.25}
	got, err := d.SetWorkload(want)
	if err != nil {
		t.Fatalf("SetWorkload: %v", err)
	}
	if got != want {
		t.Errorf("effective params = %+v, want %+v", got, want)
	}
	if d.Workload() != want {
		t.Errorf("Workload() = %+v, want %+v", d.Workload(), want)
	}
	if _, err := d.SetWorkload(WorkloadParams{ZipfS: -1, MeanInterarrivalMs: 1}); err == nil {
		t.Error("negative exponent accepted")
	}
	if _, err := d.SetWorkload(WorkloadParams{ZipfS: 1, MeanInterarrivalMs: 0}); err == nil {
		t.Error("zero inter-arrival accepted")
	}
	submit(t, d, 200, -1)
	if err := d.Drain(""); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if snap := d.Snapshot(); snap.Totals.Completed+snap.Totals.Failed != 200 {
		t.Errorf("retuned batch did not complete: %+v", snap.Totals)
	}
}

// TestScaling exercises the elastic pool bounds and live resizing.
func TestScaling(t *testing.T) {
	d := mustStart(t, testConfig(t), nil)
	target, _, err := d.Scale(4)
	if err != nil || target != 4 {
		t.Fatalf("Scale(4) = (%d, %v), want target 4", target, err)
	}
	target, _, err = d.Scale(1)
	if err != nil || target != 1 {
		t.Fatalf("Scale(1) = (%d, %v), want target 1", target, err)
	}
	if _, _, err := d.Scale(0); err == nil {
		t.Error("Scale(0) accepted")
	}
	if _, _, err := d.Scale(MaxWorkers + 1); err == nil {
		t.Errorf("Scale(%d) accepted", MaxWorkers+1)
	}
	// The downsized pool still drains everything.
	submit(t, d, 300, -1)
	submit(t, d, 300, -1)
	if err := d.Drain(""); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if snap := d.Snapshot(); snap.Totals.Completed+snap.Totals.Failed != 600 {
		t.Errorf("scaled pool lost requests: %+v", snap.Totals)
	}
	if _, active := d.PoolStatus(); active != 0 {
		t.Errorf("%d workers alive after drain", active)
	}
}

// TestDeterministicSchedules pins that identical submissions against
// identical configs produce identical measurements regardless of pool
// width — batch preparation is seeded by admission sequence, not
// worker identity.
func TestDeterministicSchedules(t *testing.T) {
	run := func(workers int) Totals {
		cfg := testConfig(t)
		cfg.Workers = workers
		d := mustStart(t, cfg, nil)
		for i := 0; i < 4; i++ {
			submit(t, d, 200, -1)
		}
		if err := d.Drain(""); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		return d.Snapshot().Totals
	}
	if one, eight := run(1), run(8); !reflect.DeepEqual(one, eight) {
		t.Errorf("totals differ across pool widths:\n 1 worker: %+v\n 8 workers: %+v", one, eight)
	}
}

// TestManifestMatchesStats asserts the drained manifest embeds the
// same totals the stats endpoint reports.
func TestManifestMatchesStats(t *testing.T) {
	d := mustStart(t, testConfig(t), nil)
	submit(t, d, 400, -1)
	if err := d.Drain(""); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	m := d.Manifest()
	if m.Schema != ManifestSchema {
		t.Errorf("schema = %q, want %q", m.Schema, ManifestSchema)
	}
	if snap := d.Snapshot(); !reflect.DeepEqual(m.Final, snap) {
		t.Errorf("manifest final snapshot diverges from /stats:\nmanifest: %+v\nstats:    %+v", m.Final, snap)
	}
}

// TestHTTPPlane drives the daemon end to end through the HTTP
// handlers mounted on the observability mux.
func TestHTTPPlane(t *testing.T) {
	cfg := testConfig(t)
	health := obs.NewHealth()
	d, err := New(cfg, health, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mux := obs.NewMux(nil, health)
	d.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "initializing") {
		t.Errorf("pre-Start /healthz = (%d, %q), want 503 initializing", code, body)
	}
	if code, _ := post("/requests", `{"count":10}`); code != http.StatusServiceUnavailable {
		t.Errorf("pre-Start POST /requests = %d, want 503", code)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("running /healthz = (%d, %q), want 200 ok", code, body)
	}
	if code, body := post("/requests", `{"count":100,"router":2}`); code != http.StatusAccepted || !strings.Contains(body, `"seq": 1`) {
		t.Errorf("POST /requests = (%d, %q), want 202 seq 1", code, body)
	}
	if code, _ := post("/requests", `{"count":0}`); code != http.StatusBadRequest {
		t.Errorf("count 0 accepted with %d", code)
	}
	if code, _ := post("/requests", `{"count":10,"router":99}`); code != http.StatusBadRequest {
		t.Errorf("unknown router accepted with %d", code)
	}
	if code, _ := post("/requests", `not json`); code != http.StatusBadRequest {
		t.Errorf("malformed body accepted with %d", code)
	}
	if code, _ := post("/workload", `{"zipf_s":1.1,"mean_interarrival_ms":0.5}`); code != http.StatusOK {
		t.Errorf("POST /workload = %d, want 200", code)
	}
	if code, _ := post("/workload", `{"zipf_s":-1}`); code != http.StatusBadRequest {
		t.Errorf("invalid workload accepted with %d", code)
	}
	if code, body := post("/scaling", `{"workers":3}`); code != http.StatusOK || !strings.Contains(body, `"target": 3`) {
		t.Errorf("POST /scaling = (%d, %q), want 200 target 3", code, body)
	}
	if code, _ := post("/scaling", `{"workers":0}`); code != http.StatusBadRequest {
		t.Errorf("zero workers accepted with %d", code)
	}
	if code, body := post("/shutdown", ``); code != http.StatusAccepted || !strings.Contains(body, "draining") {
		t.Errorf("POST /shutdown = (%d, %q), want 202 draining", code, body)
	}
	select {
	case <-d.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after /shutdown")
	}
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("post-drain /healthz = (%d, %q), want 503 draining", code, body)
	}
	code, body := get("/stats")
	if code != http.StatusOK {
		t.Fatalf("GET /stats = %d, want 200", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	if snap.State != "stopped" || snap.Totals.Completed+snap.Totals.Failed != 100 {
		t.Errorf("final stats = %+v, want stopped with 100 resolved requests", snap)
	}
	if code, _ := post("/requests", `{"count":10}`); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain POST /requests = %d, want 503", code)
	}
}
