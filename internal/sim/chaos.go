// Chaos-scenario execution: wires a compiled fault.ChaosScenario into
// a run. Router and link failures ride the ordinary injector; this
// file adds the coordination-channel timeline — coordinator outages
// gate the failure detector, placements go stale and (past the
// staleness bound) the data plane degrades to autonomous en-route
// caching, heartbeat loss windows drop detector probes, and an
// optional checkpoint is saved at each coordinator crash and restored
// at the restart. Everything is scheduled on the discrete-event engine
// up front, so chaos runs replay deterministically.
package sim

import (
	"fmt"
	"math/rand"

	"ccncoord/internal/cache"
	"ccncoord/internal/ccn"
	"ccncoord/internal/coord"
	"ccncoord/internal/des"
	"ccncoord/internal/fault"
	"ccncoord/internal/topology"
	"ccncoord/internal/trace"
)

// chaosRuntime accumulates the chaos scenario's coordination outcomes
// over a run.
type chaosRuntime struct {
	// Outcome accumulators.
	outages       int     // coordinator outage windows begun
	coordDowntime float64 // total coordinator downtime (ms)
	degradedMs    float64 // total time in degraded mode (ms)
	moves         int64   // overlay entries flushed at re-convergence
	ttrSum        float64 // summed crash-to-reconverge times (ms)
	ttrN          int     // reconvergences measured
	degTotal      int64   // measured requests completed while degraded
	degOrigin     int64   // of those, served by the origin

	// Live state.
	down        bool    // a coordinator outage is active
	downAt      float64 // when it began
	degEnterAt  float64 // when degraded mode began (valid while degraded)
	awaitDownAt float64 // downAt of the outage awaiting late repairs
	await       map[topology.NodeID]bool
}

// chaosEnv is the serial run state installChaos wires into: the built
// pipeline plus the serial drive's engine, fault machinery and error
// sink.
type chaosEnv struct {
	*pipeline
	eng  *des.Engine
	det  *coord.Detector // nil outside the coordinated policy
	inj  *fault.Injector
	fail func(error)
}

// finish closes windows still open when the run ends.
func (cr *chaosRuntime) finish(now float64, net *ccn.Network) {
	if net.Degraded() {
		cr.degradedMs += now - cr.degEnterAt
	}
	if cr.down {
		cr.coordDowntime += now - cr.downAt
	}
}

// installChaos schedules the scenario's coordination timeline on the
// engine and hooks the failure detector. Router and link events are
// already merged into the injector's schedule by the caller.
func installChaos(env chaosEnv) (*chaosRuntime, error) {
	cr := &chaosRuntime{}
	bound := env.sc.StalenessBound
	if bound == 0 {
		bound = DefaultStalenessBound
	}

	// Coordination-message loss: heartbeats inside a window are lost
	// with the window's rate (one seeded stream for the whole run), and
	// a delay at or past the heartbeat interval loses them all.
	if len(env.chaos.Loss) > 0 {
		if env.det == nil {
			return nil, fmt.Errorf("sim: chaos message loss requires the coordinated policy's failure detector")
		}
		hbInterval := env.sc.HeartbeatInterval
		if hbInterval == 0 {
			hbInterval = DefaultHeartbeatInterval
		}
		lossRNG := rand.New(rand.NewSource(env.chaos.Seed + 0x10557))
		windows := env.chaos.Loss
		env.det.Drop = func(r topology.NodeID, at float64) bool {
			for _, w := range windows {
				if at < w.From || at >= w.To {
					continue
				}
				if w.DelayMs >= hbInterval {
					return true
				}
				if w.Rate > 0 && lossRNG.Float64() < w.Rate {
					return true
				}
			}
			return false
		}
	}

	if len(env.chaos.Coordinator) == 0 {
		return cr, nil
	}
	if env.det == nil || env.prov.coordAsg == nil {
		return nil, fmt.Errorf("sim: chaos coordinator outages require the coordinated policy")
	}

	// A dead coordinator runs no heartbeat rounds: no probes, no
	// misses, no declarations, no repairs.
	env.det.Gate = func() bool { return !cr.down }

	// Routers that crash during an outage go undetected until the
	// coordinator returns; re-convergence for that outage completes
	// only when the detector has caught up and repaired the last of
	// them. Chain onto the repair callback to observe that moment.
	prevDown := env.det.OnDown
	env.det.OnDown = func(dead topology.NodeID, at float64, survivors []topology.NodeID) {
		if prevDown != nil {
			prevDown(dead, at, survivors)
		}
		if cr.await != nil {
			delete(cr.await, dead)
			if len(cr.await) == 0 {
				cr.await = nil
				cr.ttrSum += at - cr.awaitDownAt
				cr.ttrN++
			}
		}
	}

	emit := func(detail string, n int64) {
		if env.sc.Tracer != nil {
			env.sc.Tracer.Emit(trace.Event{T: env.eng.Now(), Kind: trace.KindMode, Router: -1, N: n, Detail: detail})
		}
	}

	coordDown := func() {
		if cr.down {
			return
		}
		cr.down = true
		cr.downAt = env.eng.Now()
		cr.outages++
		if env.sc.CheckpointPath != "" {
			// Checkpoint at the crash instant: the epoch is the outage
			// index, so a restart can refuse a checkpoint from a
			// different crash.
			cp := &coord.Checkpoint{
				Epoch:     int64(cr.outages - 1),
				Placement: &coord.Placement{LocalSet: env.prov.localSet, Assignment: env.prov.coordAsg},
			}
			st := env.det.State()
			cp.Detector = &st
			if err := coord.SaveCheckpoint(env.sc.CheckpointPath, cp); err != nil {
				env.fail(fmt.Errorf("sim: saving coordinator checkpoint: %w", err))
				return
			}
		}
		env.net.SetPlacementsStale(true)
		emit("coord-down", int64(cr.outages))
	}

	coordUp := func() {
		if !cr.down {
			return
		}
		now := env.eng.Now()
		if env.sc.CheckpointPath != "" {
			// Restart from the checkpoint: adopt the checkpointed
			// placement into the live assignment (the data plane holds
			// its pointer as the directory), restore detector progress,
			// and reinstall the coordinated store partitions to match.
			cp, err := coord.LoadCheckpoint(env.sc.CheckpointPath)
			if err != nil {
				env.fail(fmt.Errorf("sim: restoring coordinator checkpoint: %w", err))
				return
			}
			if cp.Epoch != int64(cr.outages-1) {
				env.fail(fmt.Errorf("sim: checkpoint epoch %d does not match outage %d", cp.Epoch, cr.outages-1))
				return
			}
			if err := env.prov.coordAsg.Adopt(cp.Placement.Assignment); err != nil {
				env.fail(fmt.Errorf("sim: adopting checkpointed placement: %w", err))
				return
			}
			if cp.Detector != nil {
				if err := env.det.RestoreState(*cp.Detector); err != nil {
					env.fail(fmt.Errorf("sim: restoring detector state: %w", err))
					return
				}
			}
			for _, r := range env.routers {
				if env.det.Declared(r) {
					continue
				}
				contents := env.prov.coordAsg.Contents(r)
				if len(contents) == 0 {
					continue
				}
				st, err := env.net.Store(r)
				if err != nil {
					env.fail(fmt.Errorf("sim: restoring store %d: %w", r, err))
					return
				}
				part, ok := st.(*cache.Partitioned)
				if !ok {
					continue
				}
				restored, err := cache.NewStatic(contents)
				if err != nil {
					env.fail(fmt.Errorf("sim: restoring store %d: %w", r, err))
					return
				}
				part.Coordinated = restored
			}
		}
		if env.net.Degraded() {
			flushed := env.net.ExitDegraded()
			cr.moves += int64(flushed)
			cr.degradedMs += now - cr.degEnterAt
		}
		env.net.SetPlacementsStale(false)
		cr.down = false
		cr.coordDowntime += now - cr.downAt
		// Time-to-reconverge: the restart completes it unless routers
		// crashed undetected during the outage — then the revived
		// detector still has to declare and repair them.
		var pending map[topology.NodeID]bool
		for _, r := range env.routers {
			if !env.det.Declared(r) && env.inj != nil && !env.inj.RouterAlive(r) {
				if pending == nil {
					pending = make(map[topology.NodeID]bool)
				}
				pending[r] = true
			}
		}
		if pending == nil {
			cr.ttrSum += now - cr.downAt
			cr.ttrN++
		} else {
			cr.awaitDownAt = cr.downAt
			cr.await = pending
		}
		emit("coord-up", int64(cr.outages))
	}

	for i, w := range env.chaos.Coordinator {
		idx := i + 1 // cr.outages while this window is the active one
		if err := env.eng.At(w.Down, coordDown); err != nil {
			return nil, fmt.Errorf("sim: scheduling coordinator crash: %w", err)
		}
		degradeAt := w.Down + bound
		if err := env.eng.At(degradeAt, func() {
			// Degrade only if this window is still the active outage:
			// it may have healed under the bound, and a later window
			// must not inherit this window's degrade tick.
			if !cr.down || cr.outages != idx || env.net.Degraded() {
				return
			}
			if err := env.net.EnterDegraded(); err != nil {
				env.fail(fmt.Errorf("sim: entering degraded mode: %w", err))
				return
			}
			cr.degEnterAt = env.eng.Now()
		}); err != nil {
			return nil, fmt.Errorf("sim: scheduling degraded fallback: %w", err)
		}
		if w.Up > 0 {
			if err := env.eng.At(w.Up, coordUp); err != nil {
				return nil, fmt.Errorf("sim: scheduling coordinator restart: %w", err)
			}
		}
	}
	return cr, nil
}
