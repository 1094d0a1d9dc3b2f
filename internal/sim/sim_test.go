package sim

import (
	"math"
	"reflect"
	"testing"

	"ccncoord/internal/model"
	"ccncoord/internal/topology"
)

// testScenario returns a moderate coordinated scenario on US-A.
func testScenario() Scenario {
	return Scenario{
		Topology:      topology.USA(),
		CatalogSize:   10000,
		ZipfS:         0.8,
		Capacity:      100,
		Coordinated:   50,
		Policy:        PolicyCoordinated,
		Requests:      60000,
		Seed:          1,
		AccessLatency: 5,
		OriginLatency: 60,
		OriginGateway: -1,
	}
}

func TestScenarioValidate(t *testing.T) {
	good := testScenario()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	mutations := map[string]func(*Scenario){
		"nil topology":      func(s *Scenario) { s.Topology = nil },
		"empty catalog":     func(s *Scenario) { s.CatalogSize = 0 },
		"zero s":            func(s *Scenario) { s.ZipfS = 0 },
		"negative capacity": func(s *Scenario) { s.Capacity = -1 },
		"coordinated > cap": func(s *Scenario) { s.Coordinated = 101 },
		"zero requests":     func(s *Scenario) { s.Requests = 0 },
		"negative warmup":   func(s *Scenario) { s.Warmup = -1 },
		"negative access":   func(s *Scenario) { s.AccessLatency = -1 },
		"zero origin":       func(s *Scenario) { s.OriginLatency = 0 },
		"gateway overflow":  func(s *Scenario) { s.OriginGateway = 99 },
		// Non-finite timing and rates once passed and produced NaN results
		// or failed deep inside the run.
		"NaN inter-arrival":      func(s *Scenario) { s.MeanInterArrival = math.NaN() },
		"infinite inter-arrival": func(s *Scenario) { s.MeanInterArrival = math.Inf(1) },
		"negative inter-arrival": func(s *Scenario) { s.MeanInterArrival = -1 },
		"NaN access":             func(s *Scenario) { s.AccessLatency = math.NaN() },
		"infinite access":        func(s *Scenario) { s.AccessLatency = math.Inf(1) },
		"infinite origin":        func(s *Scenario) { s.OriginLatency = math.Inf(1) },
		"NaN loss rate":          func(s *Scenario) { s.LossRate = math.NaN() },
		"NaN link rate":          func(s *Scenario) { s.LinkRate = math.NaN() },
		"infinite link rate":     func(s *Scenario) { s.LinkRate = math.Inf(1) },
		"NaN MTBF":               func(s *Scenario) { s.MTBF, s.MTTR, s.RetxTimeout = math.NaN(), 10, 200 },
		"infinite MTTR":          func(s *Scenario) { s.MTBF, s.MTTR, s.RetxTimeout = 100, math.Inf(1), 200 },
		"NaN staleness bound":    func(s *Scenario) { s.StalenessBound = math.NaN() },
		"infinite heartbeat":     func(s *Scenario) { s.HeartbeatInterval = math.Inf(1) },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			sc := testScenario()
			mutate(&sc)
			if err := sc.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
}

// TestCoordinatedMatchesDiscreteModel is the central integration test:
// the packet-level simulator's origin load must match the analytical
// model's 1 - F(c + (n-1)x) within sampling noise, and the tier split
// must match up to the model's known approximation (the requesting
// router's own coordinated slice counts as local in reality but as peer
// in the model, shifting ~band/n of mass between the two tiers).
func TestCoordinatedMatchesDiscreteModel(t *testing.T) {
	sc := testScenario()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.Config{
		S: sc.ZipfS, N: float64(sc.CatalogSize), C: float64(sc.Capacity),
		Routers: sc.Topology.N(),
		Lat:     model.Latency{D0: 1, D1: 2, D2: 3}, Alpha: 1,
	}
	d, err := model.NewDiscrete(cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, peer, origin := d.HitRatios(sc.Coordinated)
	if math.Abs(res.OriginLoad-origin) > 0.01 {
		t.Errorf("origin load: sim %v vs model %v", res.OriginLoad, origin)
	}
	slice := peer / float64(sc.Topology.N())
	if math.Abs(res.LocalHit-(local+slice)) > 0.012 {
		t.Errorf("local hit: sim %v vs model %v (+own slice %v)", res.LocalHit, local+slice, slice)
	}
	if math.Abs(res.PeerHit-(peer-slice)) > 0.012 {
		t.Errorf("peer hit: sim %v vs model %v", res.PeerHit, peer-slice)
	}
}

// TestNonCoordinatedMatchesModel checks the x = 0 baseline: local hit
// ratio F(c), everything else from the origin, zero peer traffic.
func TestNonCoordinatedMatchesModel(t *testing.T) {
	sc := testScenario()
	sc.Policy = PolicyNonCoordinated
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.Config{
		S: sc.ZipfS, N: float64(sc.CatalogSize), C: float64(sc.Capacity),
		Routers: sc.Topology.N(),
		Lat:     model.Latency{D0: 1, D1: 2, D2: 3}, Alpha: 1,
	}
	d, err := model.NewDiscrete(cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, _, origin := d.HitRatios(0)
	if math.Abs(res.LocalHit-local) > 0.01 {
		t.Errorf("local: sim %v vs model %v", res.LocalHit, local)
	}
	if math.Abs(res.OriginLoad-origin) > 0.01 {
		t.Errorf("origin: sim %v vs model %v", res.OriginLoad, origin)
	}
	if res.PeerHit != 0 {
		t.Errorf("peer hit %v without coordination", res.PeerHit)
	}
	if res.CoordMessages != 0 {
		t.Errorf("coordination messages %d without coordination", res.CoordMessages)
	}
}

// TestCoordinationReducesOriginLoad is the paper's headline behavioral
// claim, measured on the executable system.
func TestCoordinationReducesOriginLoad(t *testing.T) {
	sc := testScenario()
	coordRes, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Policy = PolicyNonCoordinated
	nonCoord, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if coordRes.OriginLoad >= nonCoord.OriginLoad {
		t.Errorf("coordination did not reduce origin load: %v vs %v",
			coordRes.OriginLoad, nonCoord.OriginLoad)
	}
	// Measured G_O must be positive and sizable for these parameters.
	gO := 1 - coordRes.OriginLoad/nonCoord.OriginLoad
	if gO < 0.2 {
		t.Errorf("measured origin load reduction %v suspiciously small", gO)
	}
}

func TestCoordMessagesMatchModelCost(t *testing.T) {
	sc := testScenario()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The protocol exchanges 2*n*x content-state messages, the measured
	// counterpart of W(x) = w*n*x (up) plus dissemination (down).
	want := 2 * int64(sc.Topology.N()) * sc.Coordinated
	if res.CoordMessages != want {
		t.Errorf("CoordMessages = %d, want %d", res.CoordMessages, want)
	}
	if res.CoordConvergence <= 0 {
		t.Errorf("CoordConvergence = %v, want > 0 (US-A has a measured matrix)", res.CoordConvergence)
	}
}

func TestDynamicPoliciesWarmUp(t *testing.T) {
	for _, p := range []Policy{PolicyLRU, PolicyLFU, PolicySLRU, PolicyTwoQ, PolicyProbCache} {
		t.Run(p.String(), func(t *testing.T) {
			sc := testScenario()
			sc.Policy = p
			sc.Warmup = 40000
			sc.Requests = 20000
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.LocalHit <= 0 {
				t.Errorf("%v: no local hits after warmup", p)
			}
			if res.OriginLoad >= 1 {
				t.Errorf("%v: origin load %v", p, res.OriginLoad)
			}
			// Dynamic LCE caching also produces opportunistic peer hits.
			if res.OriginLoad+res.LocalHit+res.PeerHit > 1.0001 ||
				res.OriginLoad+res.LocalHit+res.PeerHit < 0.9999 {
				t.Errorf("%v: tier fractions sum to %v", p, res.OriginLoad+res.LocalHit+res.PeerHit)
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := testScenario()
	sc.Requests = 5000
	r1, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same seed produced different results:\n%+v\n%+v", r1, r2)
	}
}

func TestGatewayOriginRaisesHops(t *testing.T) {
	sc := testScenario()
	sc.Policy = PolicyNonCoordinated
	sc.Requests = 20000
	uniform, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.OriginGateway = 0
	gateway, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Routing misses through a single gateway adds intradomain hops.
	if gateway.MeanHops <= uniform.MeanHops {
		t.Errorf("gateway hops %v should exceed uniform hops %v",
			gateway.MeanHops, uniform.MeanHops)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyNonCoordinated.String() != "non-coordinated" ||
		PolicyCoordinated.String() != "coordinated" ||
		PolicyLRU.String() != "lru" || PolicyLFU.String() != "lfu" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should still format")
	}
}

func TestMotivatingExampleMatchesTableI(t *testing.T) {
	cmp, err := MotivatingExample(50)
	if err != nil {
		t.Fatal(err)
	}
	nc, c := cmp.NonCoordinated, cmp.Coordinated
	if math.Abs(nc.OriginLoad-1.0/3) > 1e-9 {
		t.Errorf("non-coordinated origin load = %v, want 1/3", nc.OriginLoad)
	}
	if math.Abs(nc.MeanHops-2.0/3) > 1e-9 {
		t.Errorf("non-coordinated hops = %v, want 2/3", nc.MeanHops)
	}
	if nc.CoordMessages != 0 {
		t.Errorf("non-coordinated messages = %d, want 0", nc.CoordMessages)
	}
	if c.OriginLoad != 0 {
		t.Errorf("coordinated origin load = %v, want 0", c.OriginLoad)
	}
	if math.Abs(c.MeanHops-0.5) > 1e-9 {
		t.Errorf("coordinated hops = %v, want 0.5", c.MeanHops)
	}
	if c.CoordMessages != 1 {
		t.Errorf("coordinated messages = %d, want 1", c.CoordMessages)
	}
}

func TestMotivatingExampleValidation(t *testing.T) {
	if _, err := MotivatingExample(0); err == nil {
		t.Error("zero cycles should fail")
	}
}

func BenchmarkCoordinatedRun(b *testing.B) {
	sc := testScenario()
	sc.Requests = 10000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}
