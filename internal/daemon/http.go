// The daemon's HTTP/JSON control and data plane. Handlers mount onto
// the observability mux (internal/obs), so one listener serves client
// load, live retuning, scaling, stats, health, metrics and pprof.
// Admission errors map onto transport semantics: a full queue is 429
// with Retry-After, a daemon outside Running is 503, a body over
// maxBodyBytes is 413 and any other malformed body is 400.
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"ccncoord/internal/obs"
)

// Register mounts the daemon's endpoints on mux:
//
//	POST /requests  {"count": N, "router": R?}  -> 202 {"seq", "queued"}
//	GET  /stats                                 -> 200 Snapshot
//	GET  /timeline                              -> 200 epoch records
//	POST /workload  WorkloadParams              -> 200 effective params
//	POST /scaling   {"workers": N}              -> 200 {"target", "active"}
//	GET  /scaling                               -> 200 {"target", "active"}
//	POST /shutdown                              -> 202; drains asynchronously
//
// /timeline supports ?since=E and ?follow=1 (see obs.TimelineHandler)
// and shares the daemon's health lifecycle: 503 before Start and after
// failure, readable while running and draining.
func (d *Daemon) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /requests", d.handleRequests)
	mux.HandleFunc("GET /stats", d.handleStats)
	mux.Handle("GET /timeline", obs.TimelineHandler(d.timeline, d.health))
	mux.HandleFunc("POST /workload", d.handleWorkload)
	mux.HandleFunc("POST /scaling", d.handleScalePost)
	mux.HandleFunc("GET /scaling", d.handleScaleGet)
	mux.HandleFunc("POST /shutdown", d.handleShutdown)
}

// writeJSON emits one JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps an admission error to its transport status.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrNotAdmitting):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// maxBodyBytes caps one request body. The largest body any endpoint
// takes, a WorkloadParams document, is well under a kilobyte.
const maxBodyBytes = 64 << 10

// decodeBody parses a request body that must be exactly one JSON
// document into v: unknown fields, trailing data and bodies over
// maxBodyBytes are rejected, as the chaos DSL and the checkpoint
// decoders reject them.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("daemon: malformed request body: %w", err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err != nil {
			return fmt.Errorf("daemon: malformed request body: %w", err)
		}
		return fmt.Errorf("daemon: malformed request body: trailing data after the JSON document (starting with %v)", tok)
	}
	return nil
}

func (d *Daemon) handleRequests(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Count  int  `json:"count"`
		Router *int `json:"router"`
	}
	if err := decodeBody(w, r, &body); err != nil {
		writeError(w, err)
		return
	}
	router := -1
	if body.Router != nil {
		router = *body.Router
	}
	seq, queued, err := d.Submit(body.Count, router)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"seq": seq, "queued": queued})
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Snapshot())
}

func (d *Daemon) handleWorkload(w http.ResponseWriter, r *http.Request) {
	var p WorkloadParams
	if err := decodeBody(w, r, &p); err != nil {
		writeError(w, err)
		return
	}
	eff, err := d.SetWorkload(p)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, eff)
}

func (d *Daemon) handleScalePost(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Workers int `json:"workers"`
	}
	if err := decodeBody(w, r, &body); err != nil {
		writeError(w, err)
		return
	}
	target, active, err := d.Scale(body.Workers)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"target": target, "active": active})
}

func (d *Daemon) handleScaleGet(w http.ResponseWriter, r *http.Request) {
	target, active := d.PoolStatus()
	writeJSON(w, http.StatusOK, map[string]int{"target": target, "active": active})
}

func (d *Daemon) handleShutdown(w http.ResponseWriter, r *http.Request) {
	// Drain blocks until the engine stops; run it off the handler so the
	// response reaches the client while queued batches finish.
	go func() { _ = d.Drain("shutdown requested") }()
	writeJSON(w, http.StatusAccepted, map[string]string{"state": StateDraining.String()})
}
