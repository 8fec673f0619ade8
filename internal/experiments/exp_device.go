package experiments

import (
	"fmt"

	"videodvfs/internal/cpu"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// TableT1 reproduces Table 1: the device OPP table (frequency, voltage,
// busy and idle power per operating point).
func TableT1(_ RunFunc) (Table, error) {
	t := Table{
		ID:     "t1",
		Title:  "Device OPP tables: frequency, voltage, power",
		Header: []string{"device", "opp", "freq_mhz", "voltage_v", "active_w", "idle_w"},
		Notes:  "power is convex in frequency; fmax/fmin active-power ratio ≥4× on every device",
	}
	for _, dev := range cpu.Devices() {
		for i, o := range dev.OPPs {
			t.Rows = append(t.Rows, []string{
				dev.Name, iv(i), fmt.Sprintf("%.0f", o.FreqHz/1e6),
				f3c(o.VoltageV), f3c(o.ActiveW), f3c(o.IdleW),
			})
		}
	}
	return t, nil
}

// FigF1 reproduces Figure 1: the measured power-vs-frequency curve of the
// flagship device, including energy per cycle (the quantity DVFS trades
// on).
func FigF1(_ RunFunc) (Table, error) {
	dev := cpu.DeviceFlagship()
	t := Table{
		ID:     "f1",
		Title:  "Power vs frequency (flagship): busy power and energy/cycle",
		Header: []string{"freq_mhz", "active_w", "energy_nj_per_cycle", "vs_fmin"},
		Notes:  "energy/cycle grows superlinearly with frequency — the headroom the policy harvests",
	}
	base := dev.OPPs[0].ActiveW / dev.OPPs[0].FreqHz
	for _, o := range dev.OPPs {
		epc := o.ActiveW / o.FreqHz
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", o.FreqHz/1e6),
			f3c(o.ActiveW),
			f3c(epc * 1e9),
			fmt.Sprintf("%.2fx", epc/base),
		})
	}
	return t, nil
}

// FigF2 reproduces Figure 2: mean per-frame decode time versus CPU
// frequency for each resolution, against the 33.3 ms frame budget.
func FigF2(_ RunFunc) (Table, error) {
	dev := cpu.DeviceFlagship()
	t := Table{
		ID:     "f2",
		Title:  "Per-frame decode time (ms) vs frequency, by resolution (30 fps budget = 33.3 ms)",
		Header: []string{"resolution", "mean_mcycles"},
		Notes:  "1/f scaling; 1080p requires a mid-table OPP to fit the budget, 360p fits at fmin",
	}
	probes := []int{0, 3, 6, 9, dev.MaxIdx()}
	for _, i := range probes {
		t.Header = append(t.Header, fmt.Sprintf("at_%dmhz", int(dev.OPPs[i].FreqHz/1e6)))
	}
	t.Header = append(t.Header, "min_freq_mhz_30fps")
	for _, res := range video.Resolutions() {
		spec := video.DefaultSpec(video.TitleSports, res)
		stream, err := video.Generate(spec, 30*sim.Second, 42)
		if err != nil {
			return Table{}, err
		}
		mc := stream.MeanCycles()
		row := []string{res.Name, f1(mc / 1e6)}
		for _, i := range probes {
			row = append(row, f1(mc/dev.OPPs[i].FreqHz*1e3))
		}
		row = append(row, fmt.Sprintf("%.0f", stream.SustainedHz()/1e6))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
