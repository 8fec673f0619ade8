package cohort

import (
	"fmt"
	"sort"

	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
	"videodvfs/internal/stats"
)

// This file is the cohort's distributed seam. A cohort's shard layout —
// count, viewer assignment, join times, per-viewer seeds — is a pure
// function of its Config, so any subset of shards can be simulated on any
// machine and the per-shard aggregation states merged back in shard-index
// order reproduce the single-node Result bit for bit. RunPart executes a
// subset; MergeParts reassembles the whole; Run is the one-part case of
// both. dvfsd serves RunPart as
// POST /v1/cohort/part and dvfsctl fans a cohort's shards across workers,
// merging the returned Partials.

// ShardState is one shard's complete serialized aggregation state: the
// wire twin of the internal agg struct. Counters are integers, energy
// sums are the exact per-shard float totals (accumulated in event order),
// and the distribution sketches carry their full bin state — everything a
// merge needs to be exact.
type ShardState struct {
	// Shard is the global shard index (0 ≤ Shard < ShardCount).
	Shard int `json:"shard"`
	// Started/Finished/Completed/HorizonCut/Errors mirror the shard's
	// population accounting at the end of its run.
	Started    int `json:"started"`
	Finished   int `json:"finished"`
	Completed  int `json:"completed"`
	HorizonCut int `json:"horizon_cut"`
	Errors     int `json:"errors"`
	// FirstError is the shard's first failure text ("" when none).
	FirstError string `json:"first_error,omitempty"`
	// CPUJ/RadioJ/DisplayJ are the shard's exact component-energy sums
	// over completed viewers.
	CPUJ     float64 `json:"cpu_j"`
	RadioJ   float64 `json:"radio_j"`
	DisplayJ float64 `json:"display_j"`
	// MaxEnd is the virtual time the shard's last viewer finished at.
	MaxEnd sim.Time `json:"max_end"`
	// Energy/Rebuffer/Startup are the shard's distribution sketches.
	Energy   stats.SketchState `json:"energy"`
	Rebuffer stats.SketchState `json:"rebuffer"`
	Startup  stats.SketchState `json:"startup"`
}

// Partial is the outcome of running a subset of a cohort's shards:
// identity fields pinning which cohort layout it belongs to, plus one
// ShardState per executed shard in shard-index order.
type Partial struct {
	// Viewers and Shards pin the cohort layout the states were computed
	// under; MergeParts refuses to mix layouts.
	Viewers int `json:"viewers"`
	Shards  int `json:"shards"`
	// States holds the executed shards' aggregation states, in
	// shard-index order.
	States []ShardState `json:"states"`
}

// RunPart executes only the named shards of cfg's cohort and returns
// their serialized aggregation states. It steps the shards through the
// same loop as a whole-cohort Run, under the same cfg-derived layout, so
// shard i simulated here is event-for-event identical to shard i inside
// Run; merging every shard's Partial (MergeParts) reproduces Run's
// Result exactly, because Run itself ends in MergeParts.
// Rollup callbacks are not supported on partial runs (a part cannot see
// the whole cohort's barrier state); OnViewer fires as usual.
func RunPart(cfg Config, shardSet []int) (Partial, error) {
	if err := cfg.Validate(); err != nil {
		return Partial{}, err
	}
	if cfg.OnRollup != nil {
		return Partial{}, fmt.Errorf("cohort: %w: OnRollup not supported on partial runs",
			experiments.ErrInvalidConfig)
	}
	nShards := cfg.shardCount()
	if len(shardSet) == 0 {
		return Partial{}, fmt.Errorf("cohort: %w: empty shard set", experiments.ErrInvalidConfig)
	}
	set := append([]int(nil), shardSet...)
	sort.Ints(set)
	for i, idx := range set {
		if idx < 0 || idx >= nShards {
			return Partial{}, fmt.Errorf("cohort: %w: shard %d outside [0, %d)",
				experiments.ErrInvalidConfig, idx, nShards)
		}
		if i > 0 && set[i-1] == idx {
			return Partial{}, fmt.Errorf("cohort: %w: shard %d named twice", experiments.ErrInvalidConfig, idx)
		}
	}

	return runShards(cfg, set, nil)
}

// MergeParts reassembles a whole cohort's Result from partial runs. The
// parts must agree on the cohort layout (Viewers, Shards) and together
// cover every shard exactly once. All merging happens in global
// shard-index order — counter sums, energy sums, sketch merges — which is
// precisely the order a single-node Run folds its shards in, so the
// merged Result is bit-identical to the single-node one.
func MergeParts(parts []Partial) (Result, error) {
	if len(parts) == 0 {
		return Result{}, fmt.Errorf("cohort: no parts to merge")
	}
	viewers, nShards := parts[0].Viewers, parts[0].Shards
	states := make([]*ShardState, nShards)
	for pi := range parts {
		p := &parts[pi]
		if p.Viewers != viewers || p.Shards != nShards {
			return Result{}, fmt.Errorf("cohort: merging mismatched layouts: %d viewers/%d shards vs %d/%d",
				p.Viewers, p.Shards, viewers, nShards)
		}
		for si := range p.States {
			st := &p.States[si]
			if st.Shard < 0 || st.Shard >= nShards {
				return Result{}, fmt.Errorf("cohort: shard %d outside [0, %d)", st.Shard, nShards)
			}
			if states[st.Shard] != nil {
				return Result{}, fmt.Errorf("cohort: shard %d present in two parts", st.Shard)
			}
			states[st.Shard] = st
		}
	}
	for i, st := range states {
		if st == nil {
			return Result{}, fmt.Errorf("cohort: shard %d missing from every part", i)
		}
	}

	r := Result{Viewers: viewers, Shards: nShards}
	energy := stats.NewSketch(sketchAlpha)
	rebuffer := stats.NewSketch(sketchAlpha)
	startup := stats.NewSketch(sketchAlpha)
	for _, st := range states {
		r.Completed += st.Completed
		r.HorizonCut += st.HorizonCut
		r.Errors += st.Errors
		if r.FirstError == "" {
			r.FirstError = st.FirstError
		}
		r.CPUJ += st.CPUJ
		r.RadioJ += st.RadioJ
		r.DisplayJ += st.DisplayJ
		if st.MaxEnd > r.SimEnd {
			r.SimEnd = st.MaxEnd
		}
		if err := mergeState(energy, st.Energy); err != nil {
			return Result{}, fmt.Errorf("cohort: shard %d energy sketch: %w", st.Shard, err)
		}
		if err := mergeState(rebuffer, st.Rebuffer); err != nil {
			return Result{}, fmt.Errorf("cohort: shard %d rebuffer sketch: %w", st.Shard, err)
		}
		if err := mergeState(startup, st.Startup); err != nil {
			return Result{}, fmt.Errorf("cohort: shard %d startup sketch: %w", st.Shard, err)
		}
	}
	r.EnergyJ = distOf(energy)
	r.RebufferRatio = distOf(rebuffer)
	r.StartupDelayS = distOf(startup)
	return r, nil
}

// mergeState reconstructs a wire sketch state and folds it into dst.
func mergeState(dst *stats.Sketch, st stats.SketchState) error {
	sk, err := stats.SketchFromState(st)
	if err != nil {
		return err
	}
	return dst.Merge(sk)
}
