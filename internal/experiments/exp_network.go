package experiments

import (
	"bytes"
	_ "embed"
	"fmt"
	"sync"

	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
)

// FigF10 reproduces Figure 10: the policy's savings across network
// conditions.
func FigF10(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f10",
		Title:  "Network variability (720p@30, 120 s): energy and stalls by network × governor",
		Header: []string{"network", "governor", "cpu_j", "radio_j", "rebuffers", "rebuf_s", "drops"},
		Notes:  "CPU savings persist on every link; stalls track the network, not the governor",
	}
	var cfgs []RunConfig
	for _, net := range SyntheticNetKinds() {
		for _, gov := range []GovernorID{GovOndemand, GovEnergyAware} {
			cfg := DefaultRunConfig()
			cfg.Governor = gov
			cfg.Net = net
			cfg.Duration = 120 * sim.Second
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f10: %w", err)
	}
	for i, res := range results {
		cfg := cfgs[i]
		t.Rows = append(t.Rows, []string{
			string(cfg.Net), string(cfg.Governor), f1(res.CPUJ), f1(res.RadioJ),
			iv(res.QoE.RebufferCount), f2c(res.QoE.RebufferTime.Seconds()),
			iv(res.QoE.DroppedFrames),
		})
	}
	return t, nil
}

// FigF11 reproduces Figure 11: whole-device energy breakdown per policy.
func FigF11(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f11",
		Title:  "Whole-device energy breakdown (720p, LTE trace, 120 s)",
		Header: []string{"governor", "cpu_j", "radio_j", "display_j", "total_j", "total_vs_ondemand"},
		Notes:  "CPU is a third to a half of device energy during streaming; whole-device savings land ≈10–20%",
	}
	baseCfg := DefaultRunConfig()
	baseCfg.Net = NetLTE
	baseCfg.Duration = 120 * sim.Second
	cfgs := Sweep{Base: baseCfg, Governors: []GovernorID{GovPerformance, GovOndemand, GovInteractive, GovEnergyAware, GovOracle}}.Expand()
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f11: %w", err)
	}
	var base float64
	for i, res := range results {
		if cfgs[i].Governor == "ondemand" {
			base = res.TotalJ()
		}
	}
	for i, res := range results {
		saving := "-"
		if base > 0 {
			saving = pct((base - res.TotalJ()) / base)
		}
		t.Rows = append(t.Rows, []string{
			string(cfgs[i].Governor), f1(res.CPUJ), f1(res.RadioJ), f1(res.DisplayJ),
			f1(res.TotalJ()), saving,
		})
	}
	return t, nil
}

// TableT3 reproduces Table 3: radio-resource coordination — DCH hold
// time, radio energy, and the M/G/N cell-capacity gain from fast dormancy
// between segment bursts.
func TableT3(run RunFunc) (Table, error) {
	t := Table{
		ID:     "t3",
		Title:  "Radio coordination (720p, 8 Mbps HSPA, 180 s): prefetch policy × dormancy",
		Header: []string{"prefetch", "dormancy", "dch_s", "fach_s", "idle_s", "radio_j", "promos", "dch_s_per_min", "cell_users"},
		Notes:  "burst prefetching opens inter-burst gaps the tail timers (and especially fast dormancy) convert into IDLE time: radio energy drops and M/G/N cell capacity rises",
	}
	type variant struct {
		prefetch string
		lowWater float64
		fd       bool
	}
	variants := []variant{
		{"trickle", 0, false},
		{"trickle", 0, true},
		{"burst(10s)", 10, false},
		{"burst(10s)", 10, true},
	}
	cfgs := make([]RunConfig, 0, len(variants))
	for _, v := range variants {
		cfg := DefaultRunConfig()
		cfg.Net = NetConst8
		cfg.Duration = 180 * sim.Second
		cfg.LowWaterSec = v.lowWater
		rrc := netsim.DefaultUMTS()
		rrc.FastDormancy = v.fd
		cfg.RRC = &rrc
		cfgs = append(cfgs, cfg)
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("t3: %w", err)
	}
	for i, res := range results {
		v := variants[i]
		dormancy := "tails(4s+15s)"
		if v.fd {
			dormancy = "fast"
		}
		dch := res.RadioResidency[netsim.StateDCH].Seconds()
		playMin := res.SimEnd.Seconds() / 60
		holdPerMin := 0.0
		if playMin > 0 {
			holdPerMin = dch / playMin
		}
		users := "-"
		// Each user holds a channel pair for holdPerMin seconds per
		// minute of streaming, arriving as one session per minute in the
		// M/G/N model; 64 channel pairs, 2% blocking target.
		if holdPerMin > 0 {
			if k, err := netsim.CapacityUsers(1.0/60, holdPerMin, 64, 0.02); err == nil {
				users = iv(k)
			}
		}
		t.Rows = append(t.Rows, []string{
			v.prefetch, dormancy,
			f1(dch),
			f1(res.RadioResidency[netsim.StateFACH].Seconds()),
			f1(res.RadioResidency[netsim.StateIdle].Seconds()),
			f1(res.RadioJ),
			iv(res.RadioPromotions),
			f1(holdPerMin),
			users,
		})
	}
	return t, nil
}

// refBWTrace is a reference bandwidth trace recorded by the dvfsstress
// player-driver against a shaped loopback origin (12 Mbit/s ON-OFF,
// 200/300 ms cycle): 15 segment fetches of 720p sports content over real
// sockets, in the canonical JSONL form. Checked in so t8 replays the
// same wire-level timing forever.
//
//go:embed testdata/ref_bwtrace.jsonl
var refBWTraceJSONL []byte

var refBWTraceOnce = sync.OnceValues(func() (netsim.Trace, error) {
	return netsim.ReadTrace(bytes.NewReader(refBWTraceJSONL))
})

// TableT8 extends the evaluation to recorded real-network conditions:
// governor comparison over a trace captured from live HTTP delivery
// (the dvfsstress pair), replayed bit-exactly by the trace backend.
func TableT8(run RunFunc) (Table, error) {
	t := Table{
		ID:     "t8",
		Title:  "Recorded-trace replay (720p@30, 30 s, 12 Mbps ON-OFF capture): energy and QoE by governor",
		Header: []string{"governor", "cpu_j", "radio_j", "total_j", "startup_s", "rebuffers", "drops"},
		Notes:  "the sim-to-real loop closed: a trace recorded over real sockets drives the same governor ranking as the synthetic links",
	}
	tr, err := refBWTraceOnce()
	if err != nil {
		return Table{}, fmt.Errorf("t8: reference trace: %w", err)
	}
	govs := []GovernorID{GovPerformance, GovOndemand, GovEnergyAware, GovOracle}
	cfgs := make([]RunConfig, 0, len(govs))
	for _, gov := range govs {
		cfg := DefaultRunConfig()
		cfg.Governor = gov
		cfg.Net = NetTrace
		cfg.BWTrace = &tr
		cfg.Duration = 30 * sim.Second
		cfgs = append(cfgs, cfg)
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("t8: %w", err)
	}
	for i, res := range results {
		t.Rows = append(t.Rows, []string{
			string(cfgs[i].Governor), f1(res.CPUJ), f1(res.RadioJ), f1(res.TotalJ()),
			f2c(res.QoE.StartupDelay.Seconds()), iv(res.QoE.RebufferCount),
			iv(res.QoE.DroppedFrames),
		})
	}
	return t, nil
}
