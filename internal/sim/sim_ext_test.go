package sim

import (
	"math"
	"reflect"
	"testing"
)

func TestAssignmentString(t *testing.T) {
	if AssignStripe.String() != "stripe" || AssignHash.String() != "hash" {
		t.Error("assignment names wrong")
	}
	if Assignment(7).String() == "" {
		t.Error("unknown assignment should still format")
	}
}

func TestInvalidAssignmentRejected(t *testing.T) {
	sc := testScenario()
	sc.Assignment = Assignment(9)
	if err := sc.Validate(); err == nil {
		t.Error("unknown assignment should fail validation")
	}
}

// TestHashAssignmentSameOriginLoad: the assignment strategy changes who
// stores what, not what is stored — origin load must be identical to
// striping, while the popularity balance may differ.
func TestHashAssignmentSameOriginLoad(t *testing.T) {
	sc := testScenario()
	sc.Requests = 30000
	stripe, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Assignment = AssignHash
	hash, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stripe.OriginLoad-hash.OriginLoad) > 1e-12 {
		t.Errorf("origin load differs: stripe %v vs hash %v", stripe.OriginLoad, hash.OriginLoad)
	}
	if stripe.PeerHit == 0 || hash.PeerHit == 0 {
		t.Error("both assignments should produce peer traffic")
	}
}

func TestHashAssignmentRejectsHeterogeneous(t *testing.T) {
	sc := testScenario()
	sc.Assignment = AssignHash
	caps := make([]int64, sc.Topology.N())
	for i := range caps {
		caps[i] = sc.Capacity
	}
	sc.Capacities = caps
	if _, err := Run(sc); err == nil {
		t.Error("hash assignment with per-router capacities should fail")
	}
}

func TestPeerMetricsPopulated(t *testing.T) {
	sc := testScenario()
	sc.Requests = 20000
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeerHops < 1 {
		t.Errorf("PeerHops = %v, want >= 1 (peer service crosses links)", res.PeerHops)
	}
	if res.PeerLoadImbalance < 1 {
		t.Errorf("PeerLoadImbalance = %v, want >= 1", res.PeerLoadImbalance)
	}
	// Without coordination there is no peer traffic and the metrics stay
	// zero.
	sc.Policy = PolicyNonCoordinated
	res, err = Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeerHops != 0 || res.PeerLoadImbalance != 0 {
		t.Errorf("non-coordinated peer metrics = %v/%v, want 0/0", res.PeerHops, res.PeerLoadImbalance)
	}
}

func TestHeterogeneousCapacitiesValidation(t *testing.T) {
	sc := testScenario()
	sc.Capacities = []int64{100, 100} // wrong length
	if err := sc.Validate(); err == nil {
		t.Error("capacity length mismatch should fail")
	}
}

// TestHeterogeneousEqualMatchesUniform: per-router capacities equal to
// the uniform capacity must reproduce the uniform run exactly.
func TestHeterogeneousEqualMatchesUniform(t *testing.T) {
	sc := testScenario()
	sc.Requests = 10000
	uniform, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]int64, sc.Topology.N())
	for i := range caps {
		caps[i] = sc.Capacity
	}
	sc.Capacities = caps
	hetero, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uniform, hetero) {
		t.Errorf("equal per-router capacities diverge from uniform:\n%+v\n%+v", uniform, hetero)
	}
}

// TestHeterogeneousBiggerRoutersHelp: doubling half the routers'
// capacity must not increase the origin load.
func TestHeterogeneousBiggerRoutersHelp(t *testing.T) {
	sc := testScenario()
	sc.Requests = 30000
	base, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]int64, sc.Topology.N())
	for i := range caps {
		caps[i] = sc.Capacity
		if i%2 == 0 {
			caps[i] = sc.Capacity * 2
		}
	}
	sc.Capacities = caps
	bigger, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if bigger.OriginLoad > base.OriginLoad {
		t.Errorf("more storage raised origin load: %v -> %v", base.OriginLoad, bigger.OriginLoad)
	}
	if bigger.CoordMessages <= base.CoordMessages {
		t.Errorf("more coordinated slots should cost more messages: %d vs %d",
			bigger.CoordMessages, base.CoordMessages)
	}
}

func TestZeroCapacityNetwork(t *testing.T) {
	sc := testScenario()
	sc.Capacity = 0
	sc.Coordinated = 0
	sc.Policy = PolicyNonCoordinated
	sc.Requests = 5000
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginLoad != 1 {
		t.Errorf("storageless network origin load = %v, want 1", res.OriginLoad)
	}
	if res.LocalHit != 0 || res.PeerHit != 0 {
		t.Errorf("storageless network has hits: %v/%v", res.LocalHit, res.PeerHit)
	}
}

func TestLatencyQuantiles(t *testing.T) {
	sc := testScenario()
	sc.Requests = 20000
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.LatencyP50 <= res.LatencyP95 && res.LatencyP95 <= res.LatencyP99) {
		t.Errorf("quantiles not ordered: p50=%v p95=%v p99=%v",
			res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
	if res.LatencyP50 <= 0 {
		t.Errorf("p50 = %v, want > 0", res.LatencyP50)
	}
	// The mean lies within the distribution's bulk.
	if res.MeanLatency < res.LatencyP50/3 || res.MeanLatency > res.LatencyP99 {
		t.Errorf("mean %v inconsistent with quantiles [%v, %v]",
			res.MeanLatency, res.LatencyP50, res.LatencyP99)
	}
}

// TestTransmissionConservation property: in a lossless network with
// deterministic routing, every data transmission answers exactly one
// interest transmission.
func TestTransmissionConservation(t *testing.T) {
	for _, pol := range []Policy{PolicyNonCoordinated, PolicyCoordinated, PolicyLRU} {
		sc := testScenario()
		sc.Policy = pol
		sc.Requests = 10000
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.InterestTransmissions != res.DataTransmissions {
			t.Errorf("%v: interest tx %d != data tx %d", pol,
				res.InterestTransmissions, res.DataTransmissions)
		}
	}
}

func TestLossyScenario(t *testing.T) {
	sc := testScenario()
	sc.Requests = 15000
	sc.LossRate = 0.1
	sc.RetxTimeout = 300
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != sc.Requests {
		t.Fatalf("only %d of %d requests completed under loss", res.Requests, sc.Requests)
	}
	if res.DroppedInterests+res.DroppedData == 0 || res.Retransmissions == 0 {
		t.Errorf("loss activity missing: drops %d/%d retx %d",
			res.DroppedInterests, res.DroppedData, res.Retransmissions)
	}
	// Origin load is a placement property, not a fabric property.
	lossless := sc
	lossless.LossRate, lossless.RetxTimeout = 0, 0
	base, err := Run(lossless)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.OriginLoad - base.OriginLoad; d > 0.02 || d < -0.02 {
		t.Errorf("origin load shifted under loss: %v vs %v", res.OriginLoad, base.OriginLoad)
	}
	if res.MeanLatency <= base.MeanLatency {
		t.Errorf("loss should raise latency: %v vs %v", res.MeanLatency, base.MeanLatency)
	}
	if err := func() error { sc := testScenario(); sc.LossRate = 0.5; return sc.Validate() }(); err == nil {
		t.Error("loss without retx timeout should fail validation")
	}
}

// TestTierLatenciesMatchPhysicalModel: the measured per-tier means are
// the model's d0, d1, d2; with a uniform origin uplink their values
// follow directly from the scenario's physical parameters.
func TestTierLatenciesMatchPhysicalModel(t *testing.T) {
	sc := testScenario()
	sc.Requests = 30000
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	tl := res.TierLatency
	// d0 = 2 * access latency exactly.
	if math.Abs(tl.Local-2*sc.AccessLatency) > 1e-9 {
		t.Errorf("d0 = %v, want %v", tl.Local, 2*sc.AccessLatency)
	}
	// d2 ~= 2 * (access + uplink) under the uniform origin; PIT
	// aggregation lets some requests ride an in-flight fetch and finish
	// slightly sooner, so the mean sits just below the physical bound.
	want2 := 2 * (sc.AccessLatency + sc.OriginLatency)
	if tl.Origin > want2+1e-9 || tl.Origin < want2-2 {
		t.Errorf("d2 = %v, want ~%v", tl.Origin, want2)
	}
	// d1 sits strictly between them and gamma is positive and finite.
	if !(tl.Local < tl.Peer && tl.Peer < tl.Origin) {
		t.Errorf("tier ordering violated: %+v", tl)
	}
	if g := tl.Gamma(); !(g > 0) {
		t.Errorf("measured gamma = %v", g)
	}
}

func TestTierLatenciesGammaDegenerate(t *testing.T) {
	if g := (TierLatencies{}).Gamma(); g != 0 {
		t.Errorf("empty tiers gamma = %v, want 0", g)
	}
	if g := (TierLatencies{Local: 5, Peer: 3, Origin: 10}).Gamma(); g != 0 {
		t.Errorf("non-monotone tiers gamma = %v, want 0", g)
	}
}

// TestLossCountersPinned pins the retransmission and expiry counts of
// the ablation-loss scenario (experiments.AblationLoss at its lossiest
// row) to the values the plane produced before PIT entries were pooled.
// A retransmission timer that adopted a recycled entry would start a
// second retry chain and inflate both.
func TestLossCountersPinned(t *testing.T) {
	sc := testScenario()
	sc.CatalogSize, sc.Capacity, sc.Coordinated = 20000, 150, 75
	sc.Requests, sc.Seed = 20000, 17
	sc.LossRate, sc.RetxTimeout = 0.2, 300
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retransmissions != 17237 || res.ExpiredInterests != 7 {
		t.Errorf("retransmissions %d, expired interests %d; want 17237 and 7",
			res.Retransmissions, res.ExpiredInterests)
	}
}
