package energy

import (
	"testing"

	"videodvfs/internal/sim"
)

// BenchmarkMeterListener measures one power sample through a listener,
// the per-event path of every CPU and radio power change. The meter
// carries the pipeline's three components, the sampled one registered
// last, and the clock advances between samples as it does in a run.
func BenchmarkMeterListener(b *testing.B) {
	eng := sim.NewEngine()
	m := NewMeter(eng)
	m.Set(ComponentDisplay, 0.6)
	m.Set(ComponentCPU, 0.2)
	listen := m.Listener(ComponentRadio)
	watts := [...]float64{0.03, 0.8, 1.2, 0.5}
	step := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i&63 == 0 {
			eng.Schedule(sim.Millisecond, step)
			eng.Run()
		}
		listen(eng.Now(), watts[i&3])
	}
}
