package experiments

import (
	"fmt"

	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
)

// TableT6 reproduces Table 6 (extension): the segment-duration trade.
// The instructive negative result: under continuous (trickle) delivery the
// per-segment gaps never outlast the RRC tails, so radio energy is flat in
// segment duration — consolidation must come from burst prefetching (T3).
// What segment duration does change is ABR agility: long segments commit
// to a rate for longer and stall when the LTE trace dips.
func TableT6(run RunFunc) (Table, error) {
	t := Table{
		ID:     "t6",
		Title:  "Segment duration trade (720p, LTE trace, BBA, 120 s)",
		Header: []string{"segment_s", "fetches", "radio_j", "dch_s", "switches", "rebuf_s", "mean_mbps"},
		Notes:  "radio energy is flat: trickle gaps never outlast the tails (radio savings need burst prefetch, see t3); long segments trade ABR agility away and stall on trace dips",
	}
	segDurs := []sim.Time{1 * sim.Second, 2 * sim.Second, 4 * sim.Second, 6 * sim.Second}
	cfgs := make([]RunConfig, len(segDurs))
	for i, segDur := range segDurs {
		cfgs[i] = DefaultRunConfig()
		cfgs[i].Net = NetLTE
		cfgs[i].ABR = "bba"
		cfgs[i].Duration = 120 * sim.Second
		cfgs[i].SegmentDur = segDur
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("t6: %w", err)
	}
	for i, res := range results {
		t.Rows = append(t.Rows, []string{
			f1(segDurs[i].Seconds()),
			iv(res.Fetches),
			f1(res.RadioJ),
			f1(res.RadioResidency[netsim.StateDCH].Seconds()),
			iv(res.QoE.RungSwitches),
			f2c(res.QoE.RebufferTime.Seconds()),
			f2c(res.QoE.MeanRungBps / 1e6),
		})
	}
	return t, nil
}
