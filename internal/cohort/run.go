package cohort

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
)

// Run executes one cohort: validate, materialize join times, build the
// shards, then step every shard in lockstep rollup barriers until all
// viewers have finished. Per-viewer failures (including horizon cuts)
// are counted in the Result, not fatal — a million-viewer run does not
// abort because one starved session timed out; only an invalid Config
// returns an error.
//
// A whole-cohort Run is the one-part case of the distributed seam: it
// steps every shard through the same loop RunPart uses and merges the
// shards' final states with MergeParts, so a single-node Result and a
// fleet-merged one are computed by the same code.
//
// Shards are stepped by up to GOMAXPROCS workers, but every
// result-determining choice — shard count, viewer assignment, seeds,
// join times, merge order — is a pure function of cfg, so the Result
// (and the OnRollup byte stream) is identical at any worker count.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	all := make([]int, cfg.shardCount())
	for i := range all {
		all[i] = i
	}
	var barrier func(sim.Time, []*shard)
	if cfg.OnRollup != nil {
		barrier = func(t sim.Time, shards []*shard) { cfg.OnRollup(snapshotRollup(t, shards)) }
	}
	p, err := runShards(cfg, all, barrier)
	if err != nil {
		return Result{}, err
	}
	return MergeParts([]Partial{p})
}

// runShards builds the shards named by set (sorted, distinct, in range)
// under cfg's whole-cohort layout and steps them in lockstep rollup
// barriers until every viewer has finished, calling barrier (if non-nil)
// after each step. It returns the shards' final aggregation states.
func runShards(cfg Config, set []int, barrier func(sim.Time, []*shard)) (Partial, error) {
	joins := computeJoins(cfg)
	nShards := cfg.shardCount()
	shards := make([]*shard, len(set))
	for i, idx := range set {
		shards[i] = newShard(&cfg, idx, nShards, joins)
	}

	var maxJoin sim.Time
	for _, j := range joins {
		if j > maxJoin {
			maxJoin = j
		}
	}
	step := cfg.rollup()
	// The horizon cuts guarantee every viewer is finished by
	// maxJoin+horizon; the bound below is a pure safety net against a
	// model bug, not a control-flow path.
	bound := maxJoin + cfg.viewerHorizon() + step
	workers := runtime.GOMAXPROCS(0)

	for t := step; ; t += step {
		stepAll(shards, t, workers)
		if err := canceled(cfg); err != nil {
			return Partial{}, err
		}
		if barrier != nil {
			barrier(t, shards)
		}
		if allDone(shards) || t > bound {
			break
		}
	}

	p := Partial{Viewers: cfg.Viewers, Shards: nShards, States: make([]ShardState, len(shards))}
	for i, sh := range shards {
		p.States[i] = ShardState{
			Shard:      sh.idx,
			Started:    sh.agg.started,
			Finished:   sh.agg.finished,
			Completed:  sh.agg.completed,
			HorizonCut: sh.agg.horizonCut,
			Errors:     sh.agg.errors,
			FirstError: sh.agg.firstErr,
			CPUJ:       sh.agg.cpuJ,
			RadioJ:     sh.agg.radioJ,
			DisplayJ:   sh.agg.displayJ,
			MaxEnd:     sh.agg.maxEnd,
			Energy:     sh.agg.energy.State(),
			Rebuffer:   sh.agg.rebuffer.State(),
			Startup:    sh.agg.startup.State(),
		}
	}
	return p, nil
}

// canceled reports whether the cohort's cancel channel has closed,
// wrapping experiments.ErrCanceled so callers branch on it exactly like a
// canceled single run.
func canceled(cfg Config) error {
	if cfg.Cancel == nil {
		return nil
	}
	select {
	case <-cfg.Cancel:
		return fmt.Errorf("cohort: %w", experiments.ErrCanceled)
	default:
		return nil
	}
}

// stepAll advances every unfinished shard to the barrier t, fanning the
// shards over a fixed-size worker pool. Shards share no mutable state,
// so the only synchronization is the barrier itself.
func stepAll(shards []*shard, t sim.Time, workers int) {
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		for _, sh := range shards {
			sh.stepTo(t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				shards[i].stepTo(t)
			}
		}()
	}
	wg.Wait()
}

func allDone(shards []*shard) bool {
	for _, sh := range shards {
		if !sh.done {
			return false
		}
	}
	return true
}
