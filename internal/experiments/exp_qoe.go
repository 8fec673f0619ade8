package experiments

import (
	"fmt"

	"videodvfs/internal/sim"
)

// qoeGovernors is the policy set for the QoE table.
func qoeGovernors() []GovernorID {
	return []GovernorID{GovPerformance, GovOndemand, GovInteractive, GovEnergyAware, GovOracle}
}

// TableT2 reproduces Table 2: the QoE summary per policy on a variable
// LTE link with buffer-based ABR.
func TableT2(run RunFunc) (Table, error) {
	t := Table{
		ID:     "t2",
		Title:  "QoE summary per policy (LTE Markov trace, BBA ABR, 120 s sports)",
		Header: []string{"governor", "startup_s", "rebuffers", "rebuf_s", "drops", "mean_mbps", "switches", "cpu_j"},
		Notes:  "the energy-aware policy matches performance on every QoE column while cutting CPU energy",
	}
	base := DefaultRunConfig()
	base.Net = NetLTE
	base.ABR = "bba"
	base.Duration = 120 * sim.Second
	cfgs := Sweep{Base: base, Governors: qoeGovernors()}.Expand()
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("t2: %w", err)
	}
	for i, res := range results {
		q := res.QoE
		t.Rows = append(t.Rows, []string{
			string(cfgs[i].Governor),
			f2c(q.StartupDelay.Seconds()),
			iv(q.RebufferCount),
			f2c(q.RebufferTime.Seconds()),
			iv(q.DroppedFrames),
			f2c(q.MeanRungBps / 1e6),
			iv(q.RungSwitches),
			f1(res.CPUJ),
		})
	}
	return t, nil
}

// FigF13 reproduces Figure 13: ABR × governor interaction on the LTE
// trace.
func FigF13(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f13",
		Title:  "ABR interaction (LTE trace, 120 s): energy and QoE by ABR × governor",
		Header: []string{"abr", "governor", "cpu_j", "mean_mbps", "rebuf_s", "drops"},
		Notes:  "savings hold under every ABR; BBA + energy-aware gives the best joint energy/QoE",
	}
	var cfgs []RunConfig
	for _, abrName := range []ABRID{ABRRate, ABRBBA} {
		for _, gov := range []GovernorID{GovOndemand, GovInteractive, GovEnergyAware} {
			cfg := DefaultRunConfig()
			cfg.Governor = gov
			cfg.Net = NetLTE
			cfg.ABR = abrName
			cfg.Duration = 120 * sim.Second
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f13: %w", err)
	}
	for i, res := range results {
		t.Rows = append(t.Rows, []string{
			string(cfgs[i].ABR), string(cfgs[i].Governor), f1(res.CPUJ),
			f2c(res.QoE.MeanRungBps / 1e6),
			f2c(res.QoE.RebufferTime.Seconds()),
			iv(res.QoE.DroppedFrames),
		})
	}
	return t, nil
}
