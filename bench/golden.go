package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"ccncoord/internal/sim"
)

//go:embed golden.json
var embeddedGolden []byte

// hitTotals is the part of a drained ccnd's accounting that depends only on
// the seed and the number of batches, never on timing.
type hitTotals struct {
	LocalHits    int64 `json:"local_hits"`
	PeerHits     int64 `json:"peer_hits"`
	OriginServes int64 `json:"origin_serves"`
}

// goldenFile pins simulated outcomes. Keys name the workload, the seed and
// the amount of work, so a run at another seed, scale or length simply has
// no entry and is checked against its own repeats only.
type goldenFile struct {
	Sim    map[string]string    `json:"sim"`
	Daemon map[string]hitTotals `json:"daemon"`
}

func simGoldenKey(name string, seed int64, requests int) string {
	return fmt.Sprintf("%s/seed=%d/requests=%d", name, seed, requests)
}

func daemonGoldenKey(name string, seed int64, batches int) string {
	return fmt.Sprintf("%s/seed=%d/batches=%d", name, seed, batches)
}

// loadGolden reads path, or the file compiled into the binary when path is
// empty.
func loadGolden(path string) (*goldenFile, error) {
	data := embeddedGolden
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("reading golden file: %w", err)
		}
	}
	g := &goldenFile{}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("parsing golden file: %w", err)
	}
	if g.Sim == nil {
		g.Sim = map[string]string{}
	}
	if g.Daemon == nil {
		g.Daemon = map[string]hitTotals{}
	}
	return g, nil
}

func (g *goldenFile) save(path string) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding golden file: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing golden file: %w", err)
	}
	return nil
}

// digest is the SHA-256 over every deterministic number a fault-free run
// reports, floats by their bits: two runs agree only if they simulated the
// same thing.
func digest(r sim.Result) string {
	h := sha256.New()
	for _, v := range []int64{int64(r.Requests), r.CoordMessages, r.InterestTransmissions, r.DataTransmissions, r.FailedRequests} {
		_ = binary.Write(h, binary.LittleEndian, v)
	}
	for _, v := range []float64{
		r.OriginLoad, r.LocalHit, r.PeerHit, r.MeanLatency, r.MeanHops,
		r.LatencyP50, r.LatencyP95, r.LatencyP99,
		r.TierLatency.Local, r.TierLatency.Peer, r.TierLatency.Origin,
		r.PeerHops, r.PeerLoadImbalance, r.CoordConvergence,
	} {
		_ = binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}
