package experiments

import (
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
)

// TestHalfBuiltViewerLeavesEngineClean: a viewer whose construction fails
// after its governor attached must detach everything it put into the
// shared engine. A zero ThermalConfig passes RunConfig.Validate but fails
// StartThermal, which runs after the governor is attached; without the
// error-path teardown, sampling governors (ondemand, conservative, …)
// would keep ticking into the cohort's engine.
func TestHalfBuiltViewerLeavesEngineClean(t *testing.T) {
	for _, gov := range GovernorIDs() {
		cfg := DefaultRunConfig()
		cfg.Governor = gov
		cfg.Duration = 5 * sim.Second
		cfg.Thermal = &cpu.ThermalConfig{}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: config must pass Validate to reach construction: %v", gov, err)
		}

		eng := sim.NewEngine()
		if _, err := NewViewer(eng, cfg, ViewerOptions{}); err == nil {
			t.Fatalf("%s: viewer with a zero thermal config built", gov)
		}
		eng.RunUntil(60 * sim.Second)
		if p, n := eng.Pending(), eng.Executed(); p != 0 || n != 0 {
			t.Errorf("%s: half-built viewer left %d pending and fired %d events", gov, p, n)
		}
	}
}
