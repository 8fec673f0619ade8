package experiments

import (
	"fmt"

	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
)

// TableT5 reproduces Table 5 (extension): cell capacity measured by
// multi-user simulation, cross-checked against the analytic M/G/N model.
// The channel-hold time per segment fetch comes from the single-user radio
// simulation of each T3 configuration, so the chain is end-to-end: player
// prefetch policy → RRC hold time → cell capacity.
func TableT5(run RunFunc) (Table, error) {
	t := Table{
		ID:     "t5",
		Title:  "Cell capacity (64 channel pairs, 2% blocking): analytic M/G/N vs multi-user simulation",
		Header: []string{"prefetch", "dormancy", "hold_s_per_fetch", "analytic_users", "simulated_users", "sim_block_at_k"},
		Notes:  "the simulated loss system reproduces the Erlang-B capacities within one scan step; shorter holds translate directly into more users per cell",
	}
	type variant struct {
		prefetch string
		lowWater float64
		fd       bool
	}
	variants := []variant{
		{"trickle", 0, false},
		{"burst(10s)", 10, false},
		{"burst(10s)", 10, true},
	}
	cfgs := make([]RunConfig, 0, len(variants))
	for _, v := range variants {
		cfg := DefaultRunConfig()
		cfg.Net = NetConst8
		cfg.Duration = 120 * sim.Second
		cfg.LowWaterSec = v.lowWater
		rrc := netsim.DefaultUMTS()
		rrc.FastDormancy = v.fd
		cfg.RRC = &rrc
		cfgs = append(cfgs, cfg)
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("t5: %w", err)
	}
	for i, res := range results {
		v := variants[i]
		if res.Fetches == 0 {
			return Table{}, fmt.Errorf("t5 %s: no fetches", v.prefetch)
		}
		hold := res.RadioResidency[netsim.StateDCH].Seconds() / float64(res.Fetches)

		analytic, err := netsim.CapacityUsers(0.5, hold, 64, 0.02)
		if err != nil {
			return Table{}, fmt.Errorf("t5 analytic: %w", err)
		}
		base := netsim.CellSimConfig{
			Channels:    64,
			FetchPeriod: 2 * sim.Second,
			HoldMean:    sim.Time(hold),
			HoldCV:      0.3,
			Duration:    5 * sim.Minute,
			Warmup:      30 * sim.Second,
		}
		simulated, err := netsim.SimulatedCapacity(base, 0.02, 2,
			func(users int) *sim.RNG { return sim.Stream(int64(users)*7+3, "t5/cell") })
		if err != nil {
			return Table{}, fmt.Errorf("t5 simulated: %w", err)
		}
		// Blocking observed at the simulated capacity point.
		at := base
		at.Users = simulated
		st, err := netsim.SimulateCell(at, sim.Stream(int64(simulated)*7+3, "t5/cell"))
		if err != nil {
			return Table{}, err
		}
		dormancy := "tails(4s+15s)"
		if v.fd {
			dormancy = "fast"
		}
		t.Rows = append(t.Rows, []string{
			v.prefetch, dormancy, f2c(hold), iv(analytic), iv(simulated), pct(st.BlockRate()),
		})
	}
	return t, nil
}
