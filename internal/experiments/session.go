package experiments

import (
	"fmt"
	"sync"

	"videodvfs/internal/invariant"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
)

// Session is a reusable simulation arena: one Viewer — the full simulated
// device, see Viewer.Reset — on a private engine. The viewer's components
// are built by the first Reset and rewound in place by every later one
// instead of being reconstructed per run; stream and bandwidth tables are
// shared immutably across resets (and across arenas, via the package
// caches). The Session itself adds only the single-run concerns: the
// engine and its event slab, tracer resolution (checker tee, batcher),
// the OnSample probe, the Cancel poller, and stopping the engine when the
// viewer finishes.
//
// A Session is single-goroutine: drive it with Reset+Finish or RunInto.
// The package-level Run draws Sessions from an internal pool, so campaign
// workers and dvfsd recycle arenas without holding one explicitly.
//
// Determinism: Viewer.Reset replays the exact construction order of a
// fresh run — component wiring, event scheduling, and RNG derivation — so
// results and traces are byte-identical to a fresh simulator's. The
// differential tests in reset_test.go pin that equivalence across the whole
// experiment registry, including cross-config recycling.
type Session struct {
	eng *sim.Engine
	v   Viewer
	// stopFn is the viewer's OnDone: pre-bound so a reset re-registers
	// it without allocating.
	stopFn func()

	batch      *trace.Batcher
	probe      *sim.Ticker
	cancelTick *sim.Ticker

	run runState
}

// runState is the per-run wiring established by Reset and consumed by
// Finish.
type runState struct {
	batch    *trace.Batcher // nil when the run is untraced
	armed    bool
	canceled bool
}

// NewSession returns an empty arena. The simulator parts are built on the
// first Reset (they need a config) and recycled by every later one.
func NewSession() *Session {
	s := &Session{eng: sim.NewEngine()}
	s.v.eng = s.eng
	s.v.traceFor = s.tracerFor
	s.stopFn = func() {
		if s.probe != nil {
			s.probe.Stop()
		}
		if s.cancelTick != nil {
			s.cancelTick.Stop()
		}
		s.eng.Stop()
	}
	return s
}

// sessionPool recycles arenas across Run calls.
var sessionPool = sync.Pool{New: func() any { return NewSession() }}

// RunInto executes one simulation in this arena, writing the outcome into
// res. Maps and slices already present in res are reused (cleared and
// refilled), so a caller recycling both the Session and the RunResult runs
// allocation-free after warm-up. On error res is left in an unspecified
// state.
func (s *Session) RunInto(cfg RunConfig, res *RunResult) error {
	if err := s.Reset(cfg); err != nil {
		return err
	}
	return s.Finish(res)
}

// Reset rewinds the arena and wires it for cfg, exactly as a fresh
// simulator construction would: same component order, same event-schedule
// order, same RNG derivations. It validates cfg, applies defaults, and
// leaves the arena armed; Finish drives the run to completion. A Reset
// invalidates everything scheduled by the previous run — including one cut
// short by an error or horizon, or armed and never finished — via the
// engine's generation bump.
func (s *Session) Reset(cfg RunConfig) error {
	// A previous Reset abandoned without Finish still has its per-run
	// wiring (governor ticker, thermal sampler, trace sink) up.
	s.release()
	s.eng.Reset()
	s.probe, s.cancelTick = nil, nil
	if err := s.v.Reset(cfg, ViewerOptions{OnDone: s.stopFn}); err != nil {
		s.release()
		return err
	}

	if onSample := cfg.OnSample; onSample != nil {
		s.probe = sim.NewTicker(s.eng, 100*sim.Millisecond, func(now sim.Time) {
			onSample(now, s.v.core.FreqHz()/1e9, s.v.core.Power(), s.v.ps.BufferSec())
		})
	}
	if cancel := cfg.Cancel; cancel != nil {
		// Poll the cancel channel at OnSample cadence: virtual time only
		// advances while the simulation is computing, so an abandoned run
		// observes the closed channel within one event batch of wall time
		// and stops instead of simulating on to the horizon.
		s.cancelTick = sim.NewTicker(s.eng, 100*sim.Millisecond, func(now sim.Time) {
			select {
			case <-cancel:
				s.run.canceled = true
				s.eng.Stop()
			default:
			}
		})
	}
	s.run.armed = true
	return nil
}

// tracerFor is the viewer's tracer resolution for a Session run:
// cfg.Tracer teed behind the checker and batched.
func (s *Session) tracerFor(cfg RunConfig, chk *invariant.Checker) trace.Tracer {
	tr := teeChecker(chk, cfg.Tracer)
	if tr == nil {
		return nil
	}
	// Batch tracer emission: hot-path emits append into typed slices,
	// the downstream chain (checker → sink) runs in flushes. The
	// batcher preserves exact event order, so output is unchanged.
	if s.batch == nil {
		s.batch = trace.NewBatcher(tr)
	} else {
		s.batch.SetOutput(tr)
	}
	s.run.batch = s.batch
	return s.batch
}

// Finish drives an armed arena to completion and collects the outcome into
// res, reusing res's maps and slices when present.
func (s *Session) Finish(res *RunResult) error {
	if !s.run.armed {
		return fmt.Errorf("experiments: session not armed; call Reset first")
	}
	s.run.armed = false
	defer s.release()

	s.v.Start()
	end := s.eng.RunUntil(s.v.horizon)
	if s.run.batch != nil {
		s.run.batch.Flush()
	}
	if s.run.canceled {
		return fmt.Errorf("experiments: %w at %v", ErrCanceled, s.eng.Now())
	}
	return s.v.finish(res, end >= s.v.horizon)
}

// release ends the run: the viewer's teardown and the per-run wiring.
func (s *Session) release() {
	s.v.teardown()
	s.run = runState{}
}
