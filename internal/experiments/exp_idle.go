package experiments

import (
	"fmt"
)

// FigF16 reproduces Figure 16 (extension): race-to-idle versus pacing.
// "Race" decodes every frame at fmax and sleeps in deep idle states
// between frames (the performance governor with cpuidle); "pace" is the
// energy-aware policy running near the sustained rate. On a convex power
// curve pacing wins even against ideal deep idle — the quantitative
// justification for frequency scaling over pure sleep-state policies.
func FigF16(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f16",
		Title:  "Race-to-idle vs pacing (720p@30, 60 s): fmax+deep-sleep against low-frequency pacing",
		Header: []string{"policy", "cstates", "cpu_j", "idle_share", "deep_idle_share", "drops"},
		Notes:  "deep idle recovers part of racing's waste (idle is ~70% of time at fmax) but pacing still wins by ≈2×: energy/cycle at fmax is ~4× the minimum",
	}
	var cfgs []RunConfig
	for _, gov := range []GovernorID{GovPerformance, GovEnergyAware} {
		for _, cstates := range []bool{false, true} {
			cfg := DefaultRunConfig()
			cfg.Governor = gov
			cfg.CStates = cstates
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f16: %w", err)
	}
	for i, res := range results {
		cfg := cfgs[i]
		idleShare, deepShare := idleShares(res)
		name := "race (" + string(cfg.Governor) + ")"
		if cfg.Governor == GovEnergyAware {
			name = "pace (" + string(cfg.Governor) + ")"
		}
		t.Rows = append(t.Rows, []string{
			name, onOff(cfg.CStates), f1(res.CPUJ), pct(idleShare), pct(deepShare),
			iv(res.QoE.DroppedFrames),
		})
	}
	return t, nil
}

// idleShares returns (idle fraction of the run, deep-idle fraction of
// idle time). Both are zero when C-states are off (no residency data).
func idleShares(res RunResult) (idleShare, deepShare float64) {
	if res.IdleResidency == nil || res.SimEnd <= 0 {
		return 0, 0
	}
	var idle, deep float64
	for name, d := range res.IdleResidency {
		idle += d.Seconds()
		if name == "power-collapse" {
			deep += d.Seconds()
		}
	}
	if idle == 0 {
		return 0, 0
	}
	return idle / res.SimEnd.Seconds(), deep / idle
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
