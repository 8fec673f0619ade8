// Package energy integrates per-component power draws over virtual time
// into energy totals and breakdowns. Components (CPU, radio, display)
// report piecewise-constant power levels; the meter does the bookkeeping.
package energy

import (
	"fmt"
	"sort"

	"videodvfs/internal/sim"
	"videodvfs/internal/stats"
)

// Standard component names used by the streaming pipeline.
const (
	// ComponentCPU is the CPU frequency domain.
	ComponentCPU = "cpu"
	// ComponentRadio is the cellular/WiFi radio.
	ComponentRadio = "radio"
	// ComponentDisplay is the screen (constant while playing).
	ComponentDisplay = "display"
)

// Meter accumulates energy per component.
//
// Components live in a short slice (the pipeline has three) rather than a
// map: Set resolves a name by a linear scan, and a Listener resolves its
// component once, so the per-sample path does no string hashing.
type Meter struct {
	eng   *sim.Engine
	comps []meterEntry
}

// meterEntry is one metered power signal. An entry created by Listener
// stays hidden from Components and Breakdown until its first sample
// (seen), so a component appears exactly when it first draws power.
type meterEntry struct {
	name string
	tw   stats.TimeWeighted
	seen bool
}

// NewMeter returns a meter bound to the engine's clock.
func NewMeter(eng *sim.Engine) *Meter {
	return &Meter{eng: eng, comps: make([]meterEntry, 0, 4)}
}

// index returns the slot of the named component, appending an unseen
// entry if it has none yet.
func (m *Meter) index(name string) int {
	for i := range m.comps {
		if m.comps[i].name == name {
			return i
		}
	}
	m.comps = append(m.comps, meterEntry{name: name})
	return len(m.comps) - 1
}

// lookup returns the named component if it has drawn power, else nil.
func (m *Meter) lookup(name string) *meterEntry {
	for i := range m.comps {
		if c := &m.comps[i]; c.seen && c.name == name {
			return c
		}
	}
	return nil
}

// set records that component i draws watts from now on.
func (m *Meter) set(i int, watts float64) {
	c := &m.comps[i]
	c.seen = true
	c.tw.Set(m.eng.Now().Seconds(), watts)
}

// Set records that a component draws watts from now on.
func (m *Meter) Set(component string, watts float64) {
	m.set(m.index(component), watts)
}

// Listener returns a callback suitable for power-change hooks (e.g.
// cpu.Core.OnPower) that feeds this meter. The component is resolved
// here, once, not on every sample.
func (m *Meter) Listener(component string) func(now sim.Time, watts float64) {
	i := m.index(component)
	return func(_ sim.Time, watts float64) { m.set(i, watts) }
}

// Reset forgets every component's accumulated signal while keeping the
// component entries in place, so a recycled meter re-accumulates from zero
// and listeners bound before the reset keep feeding their components.
func (m *Meter) Reset() {
	for i := range m.comps {
		m.comps[i].tw.Reset()
	}
}

// Finish closes every component's integral at the current virtual time.
// Call once when the simulation ends, before reading totals.
func (m *Meter) Finish() {
	now := m.eng.Now().Seconds()
	for i := range m.comps {
		if c := &m.comps[i]; c.seen {
			c.tw.Finish(now)
		}
	}
}

// ComponentJ returns the accumulated energy of one component in joules.
func (m *Meter) ComponentJ(component string) float64 {
	if c := m.lookup(component); c != nil {
		return c.tw.Integral()
	}
	return 0
}

// TotalJ returns the energy summed over all components in joules.
func (m *Meter) TotalJ() float64 {
	var sum float64
	for i := range m.comps {
		sum += m.comps[i].tw.Integral()
	}
	return sum
}

// MeanW returns the time-weighted mean power of one component in watts.
func (m *Meter) MeanW(component string) float64 {
	if c := m.lookup(component); c != nil {
		return c.tw.Mean()
	}
	return 0
}

// Breakdown returns per-component energy in joules, keyed by name.
func (m *Meter) Breakdown() map[string]float64 {
	out := make(map[string]float64, len(m.comps))
	for i := range m.comps {
		if c := &m.comps[i]; c.seen {
			out[c.name] = c.tw.Integral()
		}
	}
	return out
}

// Components returns the component names seen so far, sorted.
func (m *Meter) Components() []string {
	out := make([]string, 0, len(m.comps))
	for i := range m.comps {
		if c := &m.comps[i]; c.seen {
			out = append(out, c.name)
		}
	}
	sort.Strings(out)
	return out
}

// String formats the breakdown for reports.
func (m *Meter) String() string {
	s := ""
	for _, name := range m.Components() {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%.2fJ", name, m.ComponentJ(name))
	}
	return s
}
