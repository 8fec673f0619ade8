package experiments

import (
	"fmt"

	"videodvfs/internal/core"
	"videodvfs/internal/video"
)

// FigF7 reproduces Figure 7: energy vs decode-ahead buffer depth (the
// slack-store ablation).
func FigF7(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f7",
		Title:  "Energy-aware policy vs decoded-buffer depth (720p@30)",
		Header: []string{"buffer_frames", "cpu_j", "mean_ghz", "drops", "rebuffers"},
		Notes:  "energy falls with depth then flattens: past ~8 frames the slack no longer buys lower OPPs",
	}
	depths := []int{1, 2, 4, 8, 12, 16}
	cfgs := make([]RunConfig, len(depths))
	for i, depth := range depths {
		cfgs[i] = DefaultRunConfig()
		cfgs[i].DecodedQueueCap = depth
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f7: %w", err)
	}
	for i, res := range results {
		t.Rows = append(t.Rows, []string{
			iv(depths[i]), f1(res.CPUJ), f2c(res.MeanFreqGHz),
			iv(res.QoE.DroppedFrames), iv(res.QoE.RebufferCount),
		})
	}
	return t, nil
}

// FigF8 reproduces Figure 8: the safety-margin sweep trading energy
// against deadline misses.
func FigF8(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f8",
		Title:  "Safety-margin sweep (720p@30, 2-frame decode buffer): energy vs dropped frames",
		Header: []string{"margin", "sigma_k", "cpu_j", "drop_rate", "boost_frames"},
		Notes:  "with little queue slack the knee is sharp: σ-headroom plus a small margin kills drops for a few joules; at the default 8-frame depth the queue itself absorbs mispredictions (see f7)",
	}
	type point struct {
		margin float64
		sigmaK float64
	}
	points := []point{
		{0.00, 0}, {0.00, 2}, {0.05, 2}, {0.10, 2}, {0.15, 2}, {0.25, 2}, {0.50, 2},
	}
	cfgs := make([]RunConfig, len(points))
	for i, p := range points {
		cfgs[i] = DefaultRunConfig()
		cfgs[i].DecodedQueueCap = 2 // little queue slack: the margin must carry the jitter
		pol := core.DefaultConfig()
		pol.Margin = p.margin
		pol.SigmaK = p.sigmaK
		cfgs[i].Policy = pol
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f8: %w", err)
	}
	for i, res := range results {
		p := points[i]
		boosts := 0
		if res.Pred != nil {
			// Boost frames are tracked by the governor; recover from the
			// predictor stats denominator when available.
			boosts = res.QoE.TotalFrames - res.Pred.N
		}
		t.Rows = append(t.Rows, []string{
			f2c(p.margin), f1(p.sigmaK), f1(res.CPUJ), pct(res.QoE.DropRate()), iv(boosts),
		})
	}
	return t, nil
}

// FigF9 reproduces Figure 9: predictor-family ablation across content
// titles.
func FigF9(run RunFunc) (Table, error) {
	t := Table{
		ID:     "f9",
		Title:  "Demand-predictor ablation × content title (720p@30, 2-frame decode buffer)",
		Header: []string{"predictor", "title", "under_rate", "relerr_p50", "relerr_p99", "drop_rate", "cpu_j"},
		Notes:  "per-type + kσ has the fewest dangerous underestimates, hence the fewest drops, at near-equal energy; mean-only predictors underestimate half the frames",
	}
	type point struct {
		kind  core.PredictorKind
		title video.Title
	}
	var points []point
	var cfgs []RunConfig
	for _, kind := range core.PredictorKinds() {
		for _, title := range video.Titles() {
			cfg := DefaultRunConfig()
			cfg.Title = title
			cfg.DecodedQueueCap = 2
			pol := core.DefaultConfig()
			pol.Predictor = kind
			if kind == core.PredictPerTypeMean {
				pol.SigmaK = 0
			}
			cfg.Policy = pol
			points = append(points, point{kind, title})
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := runAllStrict(run, cfgs)
	if err != nil {
		return Table{}, fmt.Errorf("f9: %w", err)
	}
	for i, res := range results {
		p := points[i]
		if res.Pred == nil {
			return Table{}, fmt.Errorf("f9 %s/%s: no predictor stats", p.kind, p.title.Name)
		}
		t.Rows = append(t.Rows, []string{
			p.kind.String(), p.title.Name,
			pct(res.Pred.UnderRate()),
			pct(res.Pred.RelErrP(50)),
			pct(res.Pred.RelErrP(99)),
			pct(res.QoE.DropRate()),
			f1(res.CPUJ),
		})
	}
	return t, nil
}
