package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"time"

	"videodvfs/internal/cohort"
	"videodvfs/internal/experiments"
	"videodvfs/internal/sim"
)

// The cohort-cell live event. The cell must be congested (the shared
// sector split is the physics under test) yet cut no viewer; bba adapts
// down where a fixed 720p stream would starve to the horizon. Shards is
// pinned to the sector count: automatic sizing would give one shard below
// 4096 viewers and serialise the cohort onto one core.
const (
	cohortViewers  = 1200
	cohortDurS     = 30
	cohortSectors  = 4
	cohortCapMbps  = 300
	cohortWindow   = 10 * sim.Second
	cohortRollup   = 200 * sim.Millisecond
	cohortPoolSize = 16
	// cohortContent seeds the event itself, the stream and the base LTE
	// trace every viewer shares. It is fixed: one content draw moves the
	// whole audience at once (allocation per viewer differs by a third
	// between content seeds), so the run seed varies the audience instead,
	// its join times and per-viewer device load.
	cohortContent = 1
)

// cohortDigests pins, per pool entry, the digest of the cohort's Result
// and every rollup frame. Regenerate with `go test -run TestPinDigests
// -update` after a reviewed model change.
//
//go:embed digests.json
var cohortDigestsJSON []byte

// cohortEntry maps a run seed onto the pinned pool: every seed selects
// one of cohortPoolSize cohorts whose output digest is known.
func cohortEntry(seed int64) int {
	return int(((seed % cohortPoolSize) + cohortPoolSize) % cohortPoolSize)
}

// cohortConfig generates the cohort for one pool entry.
func cohortConfig(entry int64) (cohort.Config, []byte, error) {
	body := requestBody(experiments.GovEnergyAware, experiments.NetLTE, experiments.ABRBBA, cohortDurS, cohortContent)
	base, err := decodeConfig(body)
	if err != nil {
		return cohort.Config{}, nil, err
	}
	return cohort.Config{
		Base:    base,
		Viewers: cohortViewers,
		Arrival: cohort.Arrival{Kind: cohort.ArrivalBurst, Window: cohortWindow},
		Cell:    &cohort.Cell{CapacityMbps: cohortCapMbps, Sectors: cohortSectors},
		Shards:  cohortSectors,
		Rollup:  cohortRollup,
		Seed:    derive(entry, "cohort/viewers", 0),
	}, body, nil
}

// cohortDigest hashes the final Result and every rollup frame.
func cohortDigest(res cohort.Result, rollups []cohort.Rollup) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range rollups {
		if err := enc.Encode(r); err != nil {
			return "", err
		}
	}
	if err := enc.Encode(res); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cohortRun is one timed cohort.Run with its rollup gaps.
type cohortRun struct {
	res     cohort.Result
	rollups []cohort.Rollup
	gaps    []time.Duration
	wall    time.Duration
	allocs  uint64
}

func runCohortOnce(cfg cohort.Config, log *spanLog, req int64) (cohortRun, error) {
	var out cohortRun
	root, endRoot := log.begin("cohort.Run", 0, req)
	var last time.Time
	cfg.OnRollup = func(r cohort.Rollup) {
		now := time.Now()
		if !last.IsZero() {
			out.gaps = append(out.gaps, now.Sub(last))
			log.add("cohort.barrier", root, req, last, now)
		}
		last = now
		out.rollups = append(out.rollups, r)
	}
	_, a0 := readMem()
	t0 := time.Now()
	res, err := cohort.Run(cfg)
	out.wall = time.Since(t0)
	_, a1 := readMem()
	endRoot()
	out.allocs = a1 - a0
	out.res = res
	return out, err
}

// checkCohort verifies one cohort outcome: everyone finished, nobody cut,
// and the digest matches the pinned one.
func checkCohort(rep *report, run cohortRun, want string) {
	r := run.res
	if r.Completed != r.Viewers || r.HorizonCut != 0 || r.Errors != 0 {
		rep.mismatch("cohort: %d/%d completed, %d cut, %d errors (%s)",
			r.Completed, r.Viewers, r.HorizonCut, r.Errors, r.FirstError)
	}
	got, err := cohortDigest(r, run.rollups)
	if err != nil {
		rep.mismatch("cohort digest: %v", err)
		return
	}
	if got != want {
		rep.mismatch("cohort digest %s, pinned %s", got, want)
	}
}

func runCohortCell(opt options) (*report, error) {
	entry := cohortEntry(opt.seed)
	var cfg cohort.Config
	var body []byte
	var want string
	setup, err := timeSetups(func(rep int) error {
		var pins map[string]string
		if err := json.Unmarshal(cohortDigestsJSON, &pins); err != nil {
			return fmt.Errorf("digests.json: %w", err)
		}
		c, b, err := cohortConfig(int64(entry))
		if err != nil {
			return err
		}
		// A tenth of the audience warms the stream and trace caches and
		// the runtime before anything is timed.
		warm := c
		warm.Viewers = cohortViewers / 10
		if _, err := cohort.Run(warm); err != nil {
			return err
		}
		if rep == 0 {
			cfg, body = c, b
			var ok bool
			if want, ok = pins[fmt.Sprint(entry)]; !ok {
				return fmt.Errorf("digests.json has no entry %d", entry)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d := time.Duration(opt.seconds * float64(time.Second))

	// loop runs whole cohorts until the deadline (at least one).
	loop := func(rep *report, d time.Duration, corrupt bool) ([]cohortRun, error) {
		var runs []cohortRun
		deadline := time.Now().Add(d)
		for len(runs) == 0 || time.Now().Before(deadline) {
			run, err := runCohortOnce(cfg, nil, 0)
			if err != nil {
				return nil, err
			}
			if corrupt && len(runs) == 0 {
				run.res.CPUJ *= 1 + 1e-9
			}
			checkCohort(rep, run, want)
			rep.Attempted += run.res.Viewers
			run.rollups = nil
			runs = append(runs, run)
		}
		return runs, nil
	}

	if !opt.trace {
		rep := &report{Correct: true}
		stopHeap := heapPeak()
		runs, err := loop(rep, d, opt.corrupt)
		peak := stopHeap()
		if err != nil {
			return nil, err
		}
		var gaps, walls []float64
		var allocs uint64
		for _, r := range runs {
			gaps = append(gaps, durationsMs(r.gaps)...)
			walls = append(walls, r.wall.Seconds())
			allocs += r.allocs
		}
		viewers := float64(cohortViewers * len(runs))
		perRun := median(walls)
		rep.set("setup_s", setup, "s")
		rep.set("sim_rate_vsps", cohortViewers*cohortDurS/perRun, "vs/s")
		rep.set("lat_p50_ms", quantile(gaps, 0.50), "ms")
		printTail("rollup gap", gaps)
		rep.set("alloc_kb_per_viewer", float64(allocs)/1024/viewers, "KB")
		rep.set("peak_heap_mb", peak, "MB")
		return rep, nil
	}

	rep := layerReport()
	stopProf, err := profileCPU()
	if err != nil {
		return nil, err
	}
	plain, err := loop(rep, d/2, opt.corrupt)
	if err != nil {
		return nil, err
	}
	shares, err := stopProf()
	if err != nil {
		return nil, err
	}
	for p, v := range shares {
		rep.setLayer(p+".self_share", v)
	}
	var plainWall time.Duration
	for _, r := range plain {
		plainWall += r.wall
	}

	// Traced pass: spans per barrier, and each viewer's outcome for the
	// work counts and the sketch and encode probes.
	log := newSpanLog()
	counts := newWorkCounts()
	var energies []float64
	var results []experiments.RunResult
	var mu sync.Mutex
	traced := cfg
	traced.OnViewer = func(_ int, res *experiments.RunResult, err error) {
		if err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		counts.viewerSec += cohortDurS
		addResultCounts(counts, res)
		energies = append(energies, res.TotalJ())
		if len(results) < 64 {
			results = append(results, *res)
		}
	}
	run, err := runCohortOnce(traced, log, 1)
	if err != nil {
		return nil, err
	}
	checkCohort(rep, run, want)
	rep.Attempted += run.res.Viewers
	overhead := run.wall.Seconds() / (plainWall.Seconds() / float64(len(plain)))
	rep.setLayer("trace.overhead_ratio", overhead)
	perVS := counts.perVS()
	for n, v := range perVS {
		rep.setLayer(n, v)
	}

	// Decomposition: every shard alone through RunPart, then MergeParts,
	// which must reproduce the whole-cohort Result.
	parts := make([]cohort.Partial, cohort.ShardCount(cfg))
	var shardS []float64
	for i := range parts {
		t0 := time.Now()
		p, err := cohort.RunPart(cfg, []int{i})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		log.add("cohort.RunPart", 0, int64(2+i), t0, t1)
		shardS = append(shardS, t1.Sub(t0).Seconds())
		parts[i] = p
	}
	t0 := time.Now()
	merged, err := cohort.MergeParts(parts)
	if err != nil {
		return nil, err
	}
	mergeTook := time.Since(t0)
	log.add("cohort.MergeParts", 0, int64(2+len(parts)), t0, t0.Add(mergeTook))
	if !reflect.DeepEqual(merged, run.res) {
		rep.mismatch("MergeParts over per-shard RunParts differs from cohort.Run")
	}
	maxS := quantile(shardS, 1)
	rep.setLayer("cohort.shard_max_s", maxS)
	rep.setLayer("cohort.shard_mean_s", mean(shardS))
	rep.setLayer("cohort.shard_imbalance", maxS/mean(shardS))
	rep.setLayer("cohort.merge_us", us(mergeTook))

	if err := probeLayers(rep, log, opt.seed, [][]byte{body}, results, energies); err != nil {
		return nil, err
	}
	return rep, log.finish(opt, perVS, overhead)
}
