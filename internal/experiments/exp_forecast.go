package experiments

import (
	"fmt"

	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
)

// TableT9 evaluates rate-prediction-aware prefetch on a fading link: the
// predictive scheduler (DESIGN.md §15) races segment bursts into
// predicted good-channel windows and defers through predicted fades the
// buffer can ride out, instead of blindly firing at the low-water mark.
// The comparison runs reactive vs. oracle vs. noisy forecasts across
// governors, so the table pins both the radio-side win (DCH residency
// and radio energy drop at iso-rebuffer) and the graceful degradation of
// imperfect predictions toward the reactive baseline.
func TableT9(run RunFunc) (Table, error) {
	t := Table{
		ID:     "t9",
		Title:  "Predictive prefetch (720p@30, LTE fading link, 120 s): forecast quality × governor",
		Header: []string{"governor", "forecast", "dch_s", "idle_s", "radio_j", "rebuffers", "rebuf_s", "cpu_j"},
		Notes:  "racing bursts into predicted good-channel windows shortens DCH holds and radio energy at iso-rebuffer; noisy forecasts degrade gracefully toward the reactive trigger",
	}
	type variant struct {
		label  string
		kind   ForecastKind
		relErr float64
	}
	variants := []variant{
		{"reactive", ForecastNone, 0},
		{"oracle", ForecastOracle, 0},
		{"noisy(15%)", ForecastNoisy, 0.15},
		{"noisy(60%)", ForecastNoisy, 0.60},
	}
	var cfgs []RunConfig
	var labels []string
	for _, gov := range []GovernorID{GovOndemand, GovEnergyAware} {
		for _, v := range variants {
			cfg := DefaultRunConfig()
			cfg.Governor = gov
			cfg.Net = NetLTE
			cfg.Duration = 120 * sim.Second
			// Burst prefetch with a 10 s hysteresis band: the reactive
			// baseline fires blindly at low water, the forecast-armed
			// runs reschedule the same bursts inside the lookahead.
			cfg.LowWaterSec = 10
			cfg.Forecast = v.kind
			if v.kind != ForecastNone {
				cfg.ForecastLookahead = 20 * sim.Second
			}
			cfg.ForecastRelErr = v.relErr
			cfgs = append(cfgs, cfg)
			labels = append(labels, v.label)
		}
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("t9: %w", err)
	}
	for i, res := range results {
		t.Rows = append(t.Rows, []string{
			string(cfgs[i].Governor), labels[i],
			f1(res.RadioResidency[netsim.StateDCH].Seconds()),
			f1(res.RadioResidency[netsim.StateIdle].Seconds()),
			f1(res.RadioJ),
			iv(res.QoE.RebufferCount), f2c(res.QoE.RebufferTime.Seconds()),
			f1(res.CPUJ),
		})
	}
	return t, nil
}
