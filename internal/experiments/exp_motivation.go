package experiments

import (
	"fmt"

	"videodvfs/internal/video"
)

// residencyBands folds per-OPP residency into low/mid/high frequency bands
// (≤50%, 50–80%, ≥80% of fmax).
func residencyBands(res RunResult, fmaxHz float64, model []float64) (low, mid, high float64) {
	var total float64
	for idx, d := range res.FreqResidency {
		if idx < 0 || idx >= len(model) {
			continue
		}
		frac := model[idx] / fmaxHz
		sec := d.Seconds()
		total += sec
		switch {
		case frac >= 0.8:
			high += sec
		case frac > 0.5:
			mid += sec
		default:
			low += sec
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	return low / total, mid / total, high / total
}

func oppFreqs(cfg RunConfig) []float64 {
	out := make([]float64, len(cfg.Device.OPPs))
	for i, o := range cfg.Device.OPPs {
		out[i] = o.FreqHz
	}
	return out
}

// FigF3 reproduces Figure 3 (motivation): where the stock ondemand
// governor spends its time during 720p streaming versus the frequency the
// content actually needs.
func FigF3(run RunFunc) (Table, error) {
	cfg := DefaultRunConfig()
	cfg.Governor = "ondemand"
	res, err := run(cfg)
	if err != nil {
		return Table{}, err
	}
	spec := video.DefaultSpec(cfg.Title, cfg.Rung)
	stream, err := video.Generate(spec, cfg.Duration, cfg.Seed)
	if err != nil {
		return Table{}, err
	}
	needMHz := stream.SustainedHz() / 1e6
	low, mid, high := residencyBands(res, cfg.Device.Fmax(), oppFreqs(cfg))
	t := Table{
		ID:     "f3",
		Title:  "Motivation: ondemand residency during 720p@30 streaming vs actual need",
		Header: []string{"metric", "value"},
		Notes:  "ondemand parks far above the sustained requirement; the gap is wasted energy",
	}
	t.Rows = [][]string{
		{"sustained need (MHz)", fmt.Sprintf("%.0f", needMHz)},
		{"mean frequency (MHz)", fmt.Sprintf("%.0f", res.MeanFreqGHz*1e3)},
		{"time at ≤50% fmax", pct(low)},
		{"time at 50–80% fmax", pct(mid)},
		{"time at ≥80% fmax", pct(high)},
		{"CPU energy (J)", f1(res.CPUJ)},
		{"dropped frames", iv(res.QoE.DroppedFrames)},
	}
	return t, nil
}

// motivationGovernors is the governor set for the residency comparison.
func motivationGovernors() []GovernorID {
	return []GovernorID{GovPerformance, GovOndemand, GovInteractive, GovSchedutil, GovConservative, GovEnergyAware, GovOracle}
}

// FigF4 reproduces Figure 4: frequency-residency distribution per
// governor during 720p streaming.
func FigF4(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f4",
		Title:  "Frequency residency by governor (720p@30, 8 Mbps)",
		Header: []string{"governor", "mean_ghz", "≤50%fmax", "50–80%", "≥80%", "cpu_j", "drops"},
		Notes:  "the energy-aware policy concentrates residency in the low band without dropping frames",
	}
	sw := Sweep{Base: DefaultRunConfig(), Governors: motivationGovernors()}
	cfgs := sw.Expand()
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f4: %w", err)
	}
	for i, res := range results {
		cfg := cfgs[i]
		low, mid, high := residencyBands(res, cfg.Device.Fmax(), oppFreqs(cfg))
		t.Rows = append(t.Rows, []string{
			string(cfg.Governor), f2c(res.MeanFreqGHz), pct(low), pct(mid), pct(high),
			f1(res.CPUJ), iv(res.QoE.DroppedFrames),
		})
	}
	return t, nil
}
