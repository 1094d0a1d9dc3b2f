package daemon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ccncoord/internal/obs"
	"ccncoord/internal/workload"
)

// bodyDaemon starts a small daemon with a per-batch cap of maxBatch and
// returns its HTTP plane as a function posting one body to one path.
// The daemon drains when the test ends.
func bodyDaemon(tb testing.TB, maxBatch int) (*Daemon, func(path string, body []byte) int) {
	tb.Helper()
	cfg := testConfig(tb)
	cfg.MaxBatch = maxBatch
	health := obs.NewHealth()
	d, err := New(cfg, health, nil)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	if err := d.Start(); err != nil {
		tb.Fatalf("Start: %v", err)
	}
	tb.Cleanup(func() { _ = d.Drain("test done") })
	mux := obs.NewMux(nil, health)
	d.Register(mux)
	return d, func(path string, body []byte) int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code
	}
}

// TestRequestBodiesStrict pins the body rules of every POST endpoint
// that takes one: exactly one JSON document with known fields, at most
// maxBodyBytes long. The bodies the benchmark client and the CI smoke
// send stay accepted.
func TestRequestBodiesStrict(t *testing.T) {
	_, post := bodyDaemon(t, 1000)
	padTo := func(doc string, size int) string {
		return doc[:len(doc)-1] + strings.Repeat(" ", size-len(doc)) + "}"
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"misspelled field", "/requests", `{"count":5,"routr":3}`, http.StatusBadRequest},
		{"trailing garbage", "/requests", `{"count":5} trailing`, http.StatusBadRequest},
		{"second document", "/requests", `{"count":5}{"count":"x"}`, http.StatusBadRequest},
		{"unknown workload field", "/workload", `{"zipf_s":1.1,"mean_interarrival_ms":0.5,"burst":2}`, http.StatusBadRequest},
		{"unknown scaling field", "/scaling", `{"workers":3,"max":4}`, http.StatusBadRequest},
		{"empty body", "/requests", ``, http.StatusBadRequest},
		{"truncated document", "/requests", `{"count":5`, http.StatusBadRequest},
		{"oversized body", "/requests", padTo(`{"count":5}`, maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"oversized workload", "/workload", padTo(`{"zipf_s":1.1,"mean_interarrival_ms":0.5}`, 2*maxBodyBytes), http.StatusRequestEntityTooLarge},
		{"benchmark batch", "/requests", `{"count":500}`, http.StatusAccepted},
		{"routed batch with newline", "/requests", "{\"count\":5,\"router\":2}\n", http.StatusAccepted},
		{"body at the cap", "/requests", padTo(`{"count":5}`, maxBodyBytes), http.StatusAccepted},
		{"smoke scaling", "/scaling", `{"workers":3}`, http.StatusOK},
		{"workload", "/workload", `{"zipf_s":1.1,"mean_interarrival_ms":0.5}`, http.StatusOK},
	}
	for _, tc := range cases {
		if got := post(tc.path, []byte(tc.body)); got != tc.want {
			t.Errorf("%s: POST %s = %d, want %d", tc.name, tc.path, got, tc.want)
		}
	}
}

// bodyFields lists each endpoint's JSON fields; bodyValid is the
// endpoint's validation, both written independently of decodeBody.
var bodyFields = map[string][]string{
	"/requests": {"count", "router"},
	"/workload": {"zipf_s", "mean_interarrival_ms"},
	"/scaling":  {"workers"},
}

// strictOK reports whether body is one JSON object, at most
// maxBodyBytes long, whose keys all name fields of the endpoint, and
// decodes it into v.
func strictOK(path string, body []byte, v any) bool {
	if len(body) > maxBodyBytes {
		return false
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(body, &obj); err != nil {
		return false
	}
	for k := range obj {
		known := false
		for _, f := range bodyFields[path] {
			known = known || strings.EqualFold(k, f)
		}
		if !known {
			return false
		}
	}
	return json.Unmarshal(body, v) == nil
}

// bodyValid reports whether the daemon should accept body at path: it
// decodes strictly and passes the endpoint's validation.
func bodyValid(path string, body []byte, maxBatch, routers int) (decodes, valid bool) {
	switch path {
	case "/requests":
		var b struct {
			Count  int  `json:"count"`
			Router *int `json:"router"`
		}
		if !strictOK(path, body, &b) {
			return false, false
		}
		return true, b.Count >= 1 && b.Count <= maxBatch && (b.Router == nil || *b.Router < routers)
	case "/workload":
		var p WorkloadParams
		if !strictOK(path, body, &p) {
			return false, false
		}
		if p.validate() != nil {
			return true, false
		}
		_, err := workload.NewZipfFamily(p.ZipfS, 500)
		return true, err == nil
	default:
		var b struct {
			Workers int `json:"workers"`
		}
		if !strictOK(path, body, &b) {
			return false, false
		}
		return true, b.Workers >= 1 && b.Workers <= MaxWorkers
	}
}

// FuzzRequestBodies posts each input to every body-taking endpoint of a
// small running daemon. No input may panic the daemon or draw a status
// outside {200, 202, 400, 413, 429, 503}; a 2xx needs a body that
// decodes strictly and passes validation, and a body that does must not
// be refused as malformed.
func FuzzRequestBodies(f *testing.F) {
	for _, seed := range []string{
		`{"count":4000}`, `{"count":5,"router":2}`, `{"count":5,"routr":3}`,
		`{"count":5} trailing`, `{"count":5}{"count":"x"}`, `{"workers":3}`,
		`{"zipf_s":1.1,"mean_interarrival_ms":0.5}`, `{"zipf_s":-1}`, `null`, `[]`, ``,
		`{"COUNT":2}`, `{"count":1e2}`, `{"count":5,"router":-7}`,
	} {
		f.Add([]byte(seed))
	}
	const maxBatch = 50
	d, post := bodyDaemon(f, maxBatch)
	routers := d.cfg.Topology.N()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/requests", "/workload", "/scaling"} {
			code := post(path, body)
			switch code {
			case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
				http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				t.Fatalf("POST %s %q = %d, outside the documented statuses", path, body, code)
			}
			decodes, valid := bodyValid(path, body, maxBatch, routers)
			if code/100 == 2 && !valid {
				t.Fatalf("POST %s %q = %d, but the body does not decode strictly and validate", path, body, code)
			}
			if decodes && (code == http.StatusRequestEntityTooLarge || (valid && code == http.StatusBadRequest)) {
				t.Fatalf("POST %s %q = %d, but the body decodes strictly (valid %v)", path, body, code, valid)
			}
		}
	})
}
