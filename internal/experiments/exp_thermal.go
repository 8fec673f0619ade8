package experiments

import (
	"fmt"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// FigF14 reproduces Figure 14 (extension): sustained 1080p playback under
// a realistic thermal envelope. Utilization-reactive governors push the
// die past the trip and get power-budget throttled; the energy-aware
// policy runs cool enough to stay out of the throttle region entirely.
func FigF14(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f14",
		Title:  "Thermal envelope (1080p sports, 300 s, trip 62 °C): heat and throttling by governor",
		Header: []string{"governor", "mean_w", "max_temp_c", "throttle_events", "throttled_s", "drops", "cpu_j"},
		Notes:  "running near the sustained decode rate keeps the die below the trip; reactive governors spend much of a long session throttled",
	}
	base := DefaultRunConfig()
	base.Rung = video.R1080p
	base.Duration = 300 * sim.Second
	th := cpu.DefaultThermalConfig()
	th.TripC = 62 // tight flagship skin budget: sustained 1080p is marginal
	base.Thermal = &th
	cfgs := Sweep{Base: base, Governors: []GovernorID{GovPerformance, GovOndemand, GovInteractive, GovSchedutil, GovEnergyAware}}.Expand()
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f14: %w", err)
	}
	for i, res := range results {
		meanW := 0.0
		if res.SimEnd > 0 {
			meanW = res.CPUJ / res.SimEnd.Seconds()
		}
		t.Rows = append(t.Rows, []string{
			string(cfgs[i].Governor), f2c(meanW), f1(res.MaxTempC), iv(res.ThrottleEvents),
			f1(res.ThrottledS), iv(res.QoE.DroppedFrames), f1(res.CPUJ),
		})
	}
	return t, nil
}

// TableT4 reproduces Table 4 (extension): streaming battery life per
// policy — hours of 720p LTE playback from a 3000 mAh / 3.8 V battery,
// derived from the whole-device mean power of a 120 s session.
func TableT4(run RunFunc) (Table, error) {
	const batteryWh = 3.0 * 3.8 // 3000 mAh at 3.8 V nominal
	t := Table{
		ID:     "t4",
		Title:  "Streaming hours per charge (3000 mAh, 720p over LTE with BBA)",
		Header: []string{"governor", "cpu_w", "radio_w", "display_w", "device_w", "hours", "vs_ondemand"},
		Notes:  "whole-device battery life improves ≈10–20%: the CPU is one of three major consumers",
	}
	baseCfg := DefaultRunConfig()
	baseCfg.Net = NetLTE
	baseCfg.ABR = "bba"
	baseCfg.Duration = 120 * sim.Second
	cfgs := Sweep{Base: baseCfg, Governors: []GovernorID{GovPerformance, GovOndemand, GovInteractive, GovEnergyAware, GovOracle}}.Expand()
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("t4: %w", err)
	}
	var baseHours float64
	type row struct {
		gov   GovernorID
		w     [4]float64
		hours float64
	}
	var rows []row
	for i, res := range results {
		gov := cfgs[i].Governor
		sec := res.SimEnd.Seconds()
		cpuW := res.CPUJ / sec
		radioW := res.RadioJ / sec
		dispW := res.DisplayJ / sec
		devW := cpuW + radioW + dispW
		hours := batteryWh / devW
		rows = append(rows, row{gov, [4]float64{cpuW, radioW, dispW, devW}, hours})
		if gov == "ondemand" {
			baseHours = hours
		}
	}
	for _, r := range rows {
		gain := "-"
		if baseHours > 0 {
			gain = pct((r.hours - baseHours) / baseHours)
		}
		t.Rows = append(t.Rows, []string{
			string(r.gov), f2c(r.w[0]), f2c(r.w[1]), f2c(r.w[2]), f2c(r.w[3]),
			f2c(r.hours), gain,
		})
	}
	return t, nil
}
