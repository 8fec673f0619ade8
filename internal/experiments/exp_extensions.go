package experiments

import (
	"fmt"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// FigF17 reproduces Figure 17 (extension): the codec trade — H.264 at the
// full ladder bitrate versus HEVC at 60% of it for equal quality. HEVC
// shifts energy from the radio (fewer bits) to the CPU (heavier decode);
// whether it wins at the device level depends on the network, so both a
// cheap and an expensive link are shown.
func FigF17(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f17",
		Title:  "Codec trade (720p sports, 120 s, energy-aware): H.264 vs HEVC",
		Header: []string{"codec", "network", "mbps", "cpu_j", "radio_j", "cpu+radio_j", "drops"},
		Notes:  "HEVC costs more CPU but fewer radio joules; it wins at the device level on expensive links (3G) and roughly ties on cheap ones",
	}
	var cfgs []RunConfig
	for _, codec := range []string{"h264", "hevc"} {
		for _, net := range []NetKind{NetWiFi, NetUMTS} {
			cfg := DefaultRunConfig()
			cfg.Codec = codec
			cfg.Net = net
			cfg.Duration = 120 * sim.Second
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f17: %w", err)
	}
	for i, res := range results {
		t.Rows = append(t.Rows, []string{
			cfgs[i].Codec, string(cfgs[i].Net),
			f2c(res.QoE.MeanRungBps / 1e6),
			f1(res.CPUJ), f1(res.RadioJ), f1(res.CPUJ + res.RadioJ),
			iv(res.QoE.DroppedFrames),
		})
	}
	return t, nil
}

// FigF18 reproduces Figure 18 (extension): generality across device
// classes. The relative saving holds on mid-range and efficiency-core
// hardware, not just the flagship the base case uses.
func FigF18(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f18",
		Title:  "Device generality (480p sports, 60 s): energy-aware vs ondemand per device class",
		Header: []string{"device", "fmax_ghz", "ondemand_j", "energyaware_j", "saving", "ea_drops"},
		Notes:  "relative savings persist across device classes; smaller tables leave less DVFS headroom, so the flagship saves the most",
	}
	base := DefaultRunConfig()
	base.Rung = video.R480p // feasible on every device class
	var cfgs []RunConfig
	for _, dev := range cpu.Devices() {
		for _, gov := range []GovernorID{GovOndemand, GovEnergyAware} {
			cfg := base
			cfg.Device = dev
			cfg.Governor = gov
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f18: %w", err)
	}
	for i, dev := range cpu.Devices() {
		odJ := results[2*i].CPUJ
		eaJ := results[2*i+1].CPUJ
		eaDrops := results[2*i+1].QoE.DroppedFrames
		saving := "-"
		if odJ > 0 {
			saving = pct((odJ - eaJ) / odJ)
		}
		t.Rows = append(t.Rows, []string{
			dev.Name, f2c(dev.Fmax() / 1e9), f1(odJ), f1(eaJ), saving, iv(eaDrops),
		})
	}
	return t, nil
}

// FigF19 reproduces Figure 19 (extension): low-latency live streaming.
// With a 4 s buffer and a 3-frame decode-ahead queue the slack store
// shrinks, so savings compress but persist — and QoE parity still holds.
func FigF19(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f19",
		Title:  "Low-latency live mode (720p, 120 s, 1 s startup / 4 s buffer / 3-frame queue)",
		Header: []string{"governor", "startup_s", "cpu_j", "mean_ghz", "drops", "rebuffers"},
		Notes:  "with little slack the policy leans on its sprint mode: savings compress versus the VOD case but remain well ahead of the reactive baselines",
	}
	base := DefaultRunConfig()
	base.Duration = 120 * sim.Second
	base.LowLatency = true
	cfgs := Sweep{Base: base, Governors: []GovernorID{GovPerformance, GovOndemand, GovInteractive, GovEnergyAware, GovOracle}}.Expand()
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f19: %w", err)
	}
	for i, res := range results {
		t.Rows = append(t.Rows, []string{
			string(cfgs[i].Governor), f2c(res.QoE.StartupDelay.Seconds()), f1(res.CPUJ),
			f2c(res.MeanFreqGHz), iv(res.QoE.DroppedFrames), iv(res.QoE.RebufferCount),
		})
	}
	return t, nil
}
