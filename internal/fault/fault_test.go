package fault

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ccncoord/internal/des"
	"ccncoord/internal/topology"
)

// fakeTarget records transitions in order.
type fakeTarget struct {
	log []string
}

func (f *fakeTarget) SetRouterState(r topology.NodeID, up bool) error {
	f.log = append(f.log, fmt.Sprintf("r%d:%t", r, up))
	return nil
}

func (f *fakeTarget) SetLinkState(a, b topology.NodeID, up bool) error {
	f.log = append(f.log, fmt.Sprintf("l%d-%d:%t", a, b, up))
	return nil
}

// TestScriptedRejectsNonFiniteTimes: a NaN time once passed (NaN < 0
// is false), broke the schedule's sort, and failed later inside the
// engine; an infinite time scheduled a fault that never fires.
func TestScriptedRejectsNonFiniteTimes(t *testing.T) {
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Scripted(
			Event{At: 10, Kind: RouterDown, Node: 1},
			Event{At: at, Kind: RouterUp, Node: 1},
		); err == nil {
			t.Errorf("event time %v accepted", at)
		}
		if _, err := Scripted(Event{At: at, Kind: LinkDown, A: 0, B: 1}); err == nil {
			t.Errorf("link event time %v accepted", at)
		}
	}
}

func TestScriptedValidation(t *testing.T) {
	if _, err := Scripted(Event{At: -1, Kind: RouterDown, Node: 0}); err == nil {
		t.Error("negative time should fail")
	}
	if _, err := Scripted(Event{At: 1, Kind: LinkDown, A: 2, B: 2}); err == nil {
		t.Error("self-loop link should fail")
	}
	if _, err := Scripted(Event{At: 1, Kind: Kind(99), Node: 0}); err == nil {
		t.Error("unknown kind should fail")
	}
	s, err := Scripted(
		Event{At: 20, Kind: RouterUp, Node: 1},
		Event{At: 10, Kind: RouterDown, Node: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	evs := s.Events()
	if evs[0].At != 10 || evs[1].At != 20 {
		t.Errorf("events not time-sorted: %v", evs)
	}
	if err := s.Validate(2); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if err := s.Validate(1); err == nil {
		t.Error("router 1 outside a 1-router topology should fail validation")
	}
}

func TestInjectorAppliesInOrder(t *testing.T) {
	sched, err := Scripted(
		Event{At: 5, Kind: RouterDown, Node: 2},
		Event{At: 8, Kind: LinkDown, A: 0, B: 1},
		Event{At: 12, Kind: RouterUp, Node: 2},
		Event{At: 15, Kind: LinkUp, A: 0, B: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng := &des.Engine{}
	tgt := &fakeTarget{}
	inj, err := NewInjector(eng, sched, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Install(); err != nil {
		t.Fatal(err)
	}

	eng.RunUntil(6)
	if inj.RouterAlive(2) {
		t.Error("router 2 should be down at t=6")
	}
	if since, down := inj.DownSince(2); !down || since != 5 {
		t.Errorf("DownSince(2) = %v, %v; want 5, true", since, down)
	}
	if inj.ActiveFaults() != 1 {
		t.Errorf("ActiveFaults = %d, want 1", inj.ActiveFaults())
	}
	eng.RunUntil(9)
	if inj.ActiveFaults() != 2 {
		t.Errorf("ActiveFaults = %d, want 2", inj.ActiveFaults())
	}
	eng.Run()
	if !inj.RouterAlive(2) || inj.ActiveFaults() != 0 {
		t.Error("all faults should have cleared by the end of the timeline")
	}
	if len(inj.Applied()) != 4 {
		t.Errorf("applied %d events, want 4", len(inj.Applied()))
	}
	if len(tgt.log) != 4 {
		t.Errorf("target saw %d transitions, want 4", len(tgt.log))
	}
}

func TestInjectorOnEventHook(t *testing.T) {
	sched, err := Scripted(Event{At: 3, Kind: RouterDown, Node: 0})
	if err != nil {
		t.Fatal(err)
	}
	eng := &des.Engine{}
	inj, err := NewInjector(eng, sched, &fakeTarget{})
	if err != nil {
		t.Fatal(err)
	}
	var seen []Event
	inj.OnEvent = func(e Event) { seen = append(seen, e) }
	if err := inj.Install(); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(seen) != 1 || seen[0].Kind != RouterDown || seen[0].Node != 0 {
		t.Errorf("OnEvent saw %v", seen)
	}
}

func TestStochasticDeterministic(t *testing.T) {
	cfg := StochasticConfig{
		MTBF: 500, MTTR: 100, Horizon: 10000, Seed: 42,
		Routers: []topology.NodeID{0, 1, 2, 3},
	}
	a, err := Stochastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stochastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Error("identical seeds generated different timelines")
	}
	if a.Len() == 0 {
		t.Error("MTBF=500 over a 10000ms horizon generated no faults")
	}
	cfg.Seed = 43
	c, err := Stochastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events(), c.Events()) {
		t.Error("different seeds generated identical timelines")
	}
}

func TestStochasticAlternatesPerRouter(t *testing.T) {
	s, err := Stochastic(StochasticConfig{
		MTBF: 300, MTTR: 300, Horizon: 20000, Seed: 7,
		Routers: []topology.NodeID{5},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantDown := true
	last := -1.0
	for _, e := range s.Events() {
		if e.Node != 5 {
			t.Fatalf("event for unexpected router: %v", e)
		}
		if e.At < last {
			t.Fatalf("events out of order: %v", s.Events())
		}
		last = e.At
		if wantDown && e.Kind != RouterDown || !wantDown && e.Kind != RouterUp {
			t.Fatalf("renewal process does not alternate: %v", s.Events())
		}
		wantDown = !wantDown
		if e.At >= 20000 {
			t.Fatalf("event beyond horizon: %v", e)
		}
	}
}

func TestStochasticValidation(t *testing.T) {
	base := StochasticConfig{MTBF: 1, MTTR: 1, Horizon: 1, Routers: []topology.NodeID{0}}
	for _, mod := range []func(*StochasticConfig){
		func(c *StochasticConfig) { c.MTBF = 0 },
		func(c *StochasticConfig) { c.MTTR = -1 },
		func(c *StochasticConfig) { c.Horizon = 0 },
		func(c *StochasticConfig) { c.Routers = nil },
	} {
		cfg := base
		mod(&cfg)
		if _, err := Stochastic(cfg); err == nil {
			t.Errorf("config %+v should fail", cfg)
		}
	}
}

func TestStochasticRouterOrderIndependent(t *testing.T) {
	a, err := Stochastic(StochasticConfig{
		MTBF: 400, MTTR: 200, Horizon: 5000, Seed: 9,
		Routers: []topology.NodeID{0, 1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stochastic(StochasticConfig{
		MTBF: 400, MTTR: 200, Horizon: 5000, Seed: 9,
		Routers: []topology.NodeID{2, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Error("router-list order changed the generated timeline")
	}
}

func TestStochasticZeroAndNegativeMTTR(t *testing.T) {
	base := StochasticConfig{MTBF: 500, MTTR: 100, Horizon: 5000, Routers: []topology.NodeID{0}}
	for _, mttr := range []float64{0, -0.001, -100} {
		cfg := base
		cfg.MTTR = mttr
		if _, err := Stochastic(cfg); err == nil {
			t.Errorf("MTTR=%v should fail", mttr)
		}
	}
}

func TestFaultAtTimeZero(t *testing.T) {
	// A fault scheduled at t=0 is legal: the router must be down before
	// the first request fires, not crash "shortly after" it.
	sched, err := Scripted(
		Event{At: 0, Kind: RouterDown, Node: 1},
		Event{At: 10, Kind: RouterUp, Node: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng := &des.Engine{}
	inj, err := NewInjector(eng, sched, &fakeTarget{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Install(); err != nil {
		t.Fatalf("installing a t=0 fault: %v", err)
	}
	eng.RunUntil(1)
	if inj.RouterAlive(1) {
		t.Error("router 1 should already be down at t=1")
	}
	if since, down := inj.DownSince(1); !down || since != 0 {
		t.Errorf("DownSince(1) = %v, %v; want 0, true", since, down)
	}
	eng.Run()
	if !inj.RouterAlive(1) {
		t.Error("router 1 should have recovered")
	}
}

func TestOverlappingScriptedFaultsIdempotent(t *testing.T) {
	// Two overlapping down-windows on the same router: the second Down
	// lands on an already-crashed router and the first Up restores it
	// while the "outer" window is still notionally open. The injector
	// applies transitions idempotently — DownSince keeps the first crash
	// time through the redundant Down, and the final state follows the
	// last applied event.
	sched, err := Scripted(
		Event{At: 10, Kind: RouterDown, Node: 3},
		Event{At: 20, Kind: RouterDown, Node: 3}, // overlaps the first window
		Event{At: 30, Kind: RouterUp, Node: 3},
		Event{At: 40, Kind: RouterUp, Node: 3}, // redundant recovery
		Event{At: 50, Kind: LinkDown, A: 0, B: 1},
		Event{At: 55, Kind: LinkDown, A: 1, B: 0}, // same link, reversed endpoints
		Event{At: 60, Kind: LinkUp, A: 0, B: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	eng := &des.Engine{}
	tgt := &fakeTarget{}
	inj, err := NewInjector(eng, sched, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Install(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(25)
	if since, down := inj.DownSince(3); !down || since != 10 {
		t.Errorf("redundant Down moved the crash time: DownSince(3) = %v, %v; want 10, true", since, down)
	}
	if inj.ActiveFaults() != 1 {
		t.Errorf("overlapping windows double-counted: ActiveFaults = %d, want 1", inj.ActiveFaults())
	}
	eng.RunUntil(56)
	if inj.ActiveFaults() != 1 {
		t.Errorf("reversed-endpoint link fault double-counted: ActiveFaults = %d, want 1", inj.ActiveFaults())
	}
	eng.Run()
	if inj.ActiveFaults() != 0 {
		t.Errorf("faults left active after all windows closed: %d", inj.ActiveFaults())
	}
	if len(inj.Applied()) != 7 {
		t.Errorf("applied %d events, want all 7 (redundant ones included)", len(inj.Applied()))
	}
}
