// Package fault provides the failure model of the simulator: a
// deterministic schedule of link and router outages driven by the
// discrete-event engine. Schedules are either scripted (explicit
// timelines, the form tests use) or stochastic (exponential MTBF/MTTR
// renewal processes, seeded so runs are reproducible). An Injector
// binds a schedule to a des.Engine and applies each event to a fault
// Target — the CCN data plane — while tracking which routers and links
// are currently down, the state the coordination layer's failure
// detector observes.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ccncoord/internal/des"
	"ccncoord/internal/topology"
)

// Kind identifies a fault event type.
type Kind int

const (
	// RouterDown crashes a router: it stops forwarding, serving, and
	// responding until a matching RouterUp.
	RouterDown Kind = iota
	// RouterUp recovers a crashed router.
	RouterUp
	// LinkDown takes an undirected link out of service.
	LinkDown
	// LinkUp restores a downed link.
	LinkUp
)

// String returns the event kind name.
func (k Kind) String() string {
	switch k {
	case RouterDown:
		return "router-down"
	case RouterUp:
		return "router-up"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault transition. Router events use Node;
// link events use the undirected pair (A, B).
type Event struct {
	At   float64
	Kind Kind
	Node topology.NodeID // router events
	A, B topology.NodeID // link events
}

// String renders the event for logs and error messages.
func (e Event) String() string {
	switch e.Kind {
	case RouterDown, RouterUp:
		return fmt.Sprintf("%.1fms %s r%d", e.At, e.Kind, e.Node)
	default:
		return fmt.Sprintf("%.1fms %s %d-%d", e.At, e.Kind, e.A, e.B)
	}
}

// isRouter reports whether the event targets a router.
func (e Event) isRouter() bool { return e.Kind == RouterDown || e.Kind == RouterUp }

// Schedule is a time-ordered fault timeline.
type Schedule struct {
	events []Event
}

// Events returns the timeline in firing order.
func (s *Schedule) Events() []Event { return append([]Event(nil), s.events...) }

// Len returns the number of scheduled events.
func (s *Schedule) Len() int { return len(s.events) }

// Scripted builds a schedule from an explicit event list. Events are
// stably sorted by time, so same-instant events fire in list order.
func Scripted(events ...Event) (*Schedule, error) {
	out := append([]Event(nil), events...)
	for _, e := range out {
		if math.IsNaN(e.At) || math.IsInf(e.At, 0) {
			return nil, fmt.Errorf("fault: event time %v is not finite", e.At)
		}
		if e.At < 0 {
			return nil, fmt.Errorf("fault: negative event time %v", e.At)
		}
		switch e.Kind {
		case RouterDown, RouterUp:
			if e.Node < 0 {
				return nil, fmt.Errorf("fault: negative router id %d", e.Node)
			}
		case LinkDown, LinkUp:
			if e.A < 0 || e.B < 0 || e.A == e.B {
				return nil, fmt.Errorf("fault: bad link endpoints (%d,%d)", e.A, e.B)
			}
		default:
			return nil, fmt.Errorf("fault: unknown event kind %d", e.Kind)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return &Schedule{events: out}, nil
}

// Validate checks every event against a topology of n routers.
func (s *Schedule) Validate(n int) error {
	for _, e := range s.events {
		if e.isRouter() {
			if int(e.Node) >= n {
				return fmt.Errorf("fault: event %q targets unknown router %d (topology has %d)", e, e.Node, n)
			}
			continue
		}
		if int(e.A) >= n || int(e.B) >= n {
			return fmt.Errorf("fault: event %q targets unknown link endpoint (topology has %d routers)", e, n)
		}
	}
	return nil
}

// StochasticConfig parameterizes an exponential router-failure process.
type StochasticConfig struct {
	// MTBF is the mean up-time (ms) between a router's recoveries and
	// its next crash, exponentially distributed.
	MTBF float64
	// MTTR is the mean down-time (ms) until a crashed router recovers,
	// exponentially distributed.
	MTTR float64
	// Horizon bounds the generated timeline: no event is scheduled at
	// or beyond it.
	Horizon float64
	// Seed drives the renewal processes; identical seeds generate
	// identical timelines. Zero selects 1.
	Seed int64
	// Routers lists the routers subject to failure.
	Routers []topology.NodeID
}

// Stochastic generates a scripted timeline by sampling, per router, an
// alternating renewal process: up for Exp(MTBF), down for Exp(MTTR),
// repeated until the horizon. Each router draws from its own seeded
// stream, so the timeline is independent of router-list order and
// bit-reproducible per seed.
func Stochastic(cfg StochasticConfig) (*Schedule, error) {
	switch {
	case !(cfg.MTBF > 0):
		return nil, fmt.Errorf("fault: MTBF must be positive, got %v", cfg.MTBF)
	case !(cfg.MTTR > 0):
		return nil, fmt.Errorf("fault: MTTR must be positive, got %v", cfg.MTTR)
	case !(cfg.Horizon > 0):
		return nil, fmt.Errorf("fault: horizon must be positive, got %v", cfg.Horizon)
	case len(cfg.Routers) == 0:
		return nil, fmt.Errorf("fault: no routers subject to failure")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	var events []Event
	for _, r := range cfg.Routers {
		if r < 0 {
			return nil, fmt.Errorf("fault: negative router id %d", r)
		}
		rng := rand.New(rand.NewSource(seed ^ (int64(r)+1)*0x9E3779B9))
		t := rng.ExpFloat64() * cfg.MTBF
		for t < cfg.Horizon {
			events = append(events, Event{At: t, Kind: RouterDown, Node: r})
			t += rng.ExpFloat64() * cfg.MTTR
			if t >= cfg.Horizon {
				break
			}
			events = append(events, Event{At: t, Kind: RouterUp, Node: r})
			t += rng.ExpFloat64() * cfg.MTBF
		}
	}
	// Same-instant ties (measure-zero but possible) break by router id
	// to keep the merged timeline deterministic.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Node < events[j].Node
	})
	return &Schedule{events: events}, nil
}

// Target is the system the injector applies faults to — the CCN data
// plane implements it.
type Target interface {
	// SetRouterState crashes (up=false) or recovers (up=true) a router.
	SetRouterState(r topology.NodeID, up bool) error
	// SetLinkState takes the undirected link (a, b) down or up.
	SetLinkState(a, b topology.NodeID, up bool) error
}

// Injector binds a fault schedule to a discrete-event engine: Install
// schedules every event, and applying an event updates the target and
// the injector's view of which routers and links are down.
type Injector struct {
	eng    *des.Engine
	sched  *Schedule
	target Target

	// OnEvent, when non-nil, observes every applied event (after the
	// target transition), e.g. to build a repair log.
	OnEvent func(Event)

	downRouters map[topology.NodeID]float64 // router -> crash time
	downLinks   map[[2]topology.NodeID]bool
	applied     []Event
}

// NewInjector returns an injector over the given engine, schedule, and
// target. Call Install before running the engine.
func NewInjector(eng *des.Engine, sched *Schedule, target Target) (*Injector, error) {
	switch {
	case eng == nil:
		return nil, fmt.Errorf("fault: nil engine")
	case sched == nil:
		return nil, fmt.Errorf("fault: nil schedule")
	case target == nil:
		return nil, fmt.Errorf("fault: nil target")
	}
	return &Injector{
		eng:         eng,
		sched:       sched,
		target:      target,
		downRouters: make(map[topology.NodeID]float64),
		downLinks:   make(map[[2]topology.NodeID]bool),
	}, nil
}

// Install schedules every event of the timeline on the engine. Events
// before the engine's current time are rejected.
func (inj *Injector) Install() error {
	for _, e := range inj.sched.events {
		e := e
		if err := inj.eng.At(e.At, func() { inj.apply(e) }); err != nil {
			return fmt.Errorf("fault: installing %q: %w", e, err)
		}
	}
	return nil
}

// apply transitions the target and the injector's fault bookkeeping.
// Redundant events (crashing a crashed router, restoring an up link)
// are applied idempotently.
func (inj *Injector) apply(e Event) {
	var err error
	switch e.Kind {
	case RouterDown:
		err = inj.target.SetRouterState(e.Node, false)
		if err == nil {
			if _, down := inj.downRouters[e.Node]; !down {
				inj.downRouters[e.Node] = inj.eng.Now()
			}
		}
	case RouterUp:
		err = inj.target.SetRouterState(e.Node, true)
		if err == nil {
			delete(inj.downRouters, e.Node)
		}
	case LinkDown:
		err = inj.target.SetLinkState(e.A, e.B, false)
		if err == nil {
			inj.downLinks[linkKey(e.A, e.B)] = true
		}
	case LinkUp:
		err = inj.target.SetLinkState(e.A, e.B, true)
		if err == nil {
			delete(inj.downLinks, linkKey(e.A, e.B))
		}
	}
	if err != nil {
		panic(fmt.Sprintf("fault: applying %q: %v", e, err))
	}
	inj.applied = append(inj.applied, e)
	if inj.OnEvent != nil {
		inj.OnEvent(e)
	}
}

// linkKey normalizes an undirected link to a map key.
func linkKey(a, b topology.NodeID) [2]topology.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

// RouterAlive reports whether router r is currently up.
func (inj *Injector) RouterAlive(r topology.NodeID) bool {
	_, down := inj.downRouters[r]
	return !down
}

// DownSince returns when router r crashed, if it is currently down.
func (inj *Injector) DownSince(r topology.NodeID) (float64, bool) {
	t, down := inj.downRouters[r]
	return t, down
}

// ActiveFaults returns how many routers and links are currently down.
func (inj *Injector) ActiveFaults() int {
	return len(inj.downRouters) + len(inj.downLinks)
}

// Applied returns the events applied so far, in firing order.
func (inj *Injector) Applied() []Event { return append([]Event(nil), inj.applied...) }
