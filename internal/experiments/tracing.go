package experiments

import (
	"videodvfs/internal/energy"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
)

// tracedListener returns the meter's power listener for component,
// additionally mirrored to the tracer as PowerEvents when tr is non-nil.
// The energy.Meter listener discards the timestamp (the meter reads the
// engine clock itself), so the tracer tap re-attaches it.
func tracedListener(meter *energy.Meter, component string, tr trace.Tracer) func(now sim.Time, watts float64) {
	inner := meter.Listener(component)
	if tr == nil {
		return inner
	}
	return func(now sim.Time, watts float64) {
		inner(now, watts)
		tr.Power(trace.PowerEvent{T: now, Component: component, Watts: watts})
	}
}
