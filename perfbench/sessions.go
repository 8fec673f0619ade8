package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"videodvfs/internal/campaign"
	"videodvfs/internal/experiments"
)

// sessionSeeds is the size of the per-run seed pool the sessions mix
// draws content from.
const sessionSeeds = 2

// sessionDurS is each session's content length.
const sessionDurS = 60

// sessionsInput is one generated sessions mix with its reference results.
type sessionsInput struct {
	bodies [][]byte
	cfgs   []experiments.RunConfig
	refs   []experiments.RunResult
}

// buildSessions generates the mix for (seed, rep): every governor × every
// synthetic network × {fixed 720p, bba} × the seed pool, in a seeded
// order, and computes each config's reference on a fresh session. That
// also warms the stream and trace caches the measured runs read.
func buildSessions(seed int64, rep int) (*sessionsInput, error) {
	in := &sessionsInput{}
	for s := 0; s < sessionSeeds; s++ {
		cs := derive(seed, "sessions/content", rep*sessionSeeds+s)
		for _, gov := range experiments.GovernorIDs() {
			for _, net := range experiments.SyntheticNetKinds() {
				for _, abr := range []experiments.ABRID{experiments.ABRFixed, experiments.ABRBBA} {
					in.bodies = append(in.bodies, requestBody(gov, net, abr, sessionDurS, cs))
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(derive(seed, "sessions/order", rep)))
	rng.Shuffle(len(in.bodies), func(i, j int) { in.bodies[i], in.bodies[j] = in.bodies[j], in.bodies[i] })
	in.cfgs = make([]experiments.RunConfig, len(in.bodies))
	in.refs = make([]experiments.RunResult, len(in.bodies))
	for i, b := range in.bodies {
		cfg, err := decodeConfig(b)
		if err != nil {
			return nil, err
		}
		in.cfgs[i] = cfg
		if in.refs[i], err = reference(cfg); err != nil {
			return nil, fmt.Errorf("reference %s: %w", b, err)
		}
	}
	return in, nil
}

// runTimer is a campaign.Observer recording each job's wall time.
type runTimer struct {
	start []time.Duration
	took  []time.Duration
}

func (o *runTimer) JobStarted(i int, p campaign.Progress) { o.start[i] = p.Wall }
func (o *runTimer) JobDone(i int, _ error, p campaign.Progress) {
	o.took[i] = p.Wall - o.start[i]
}
func (o *runTimer) BatchDone(campaign.Progress) {}

// sessionsLoop runs the whole mix through RunAll with two workers, batch
// after batch, until the deadline, and checks every result against its
// reference. tracers, when set, gives config i a counting tracer.
type sessionsLoop struct {
	runs      []time.Duration // per Run call
	batches   []time.Duration // per RunAll call
	allocs    uint64          // bytes allocated inside RunAll
	attempted int
	results   []experiments.RunResult // the last batch
	counts    *workCounts
	events    int64
}

func (l *sessionsLoop) run(rep *report, in *sessionsInput, d time.Duration, log *spanLog, corrupt bool) {
	cfgs := in.cfgs
	var tracers []*counter
	if log != nil {
		l.counts = newWorkCounts()
		cfgs = append([]experiments.RunConfig(nil), in.cfgs...)
		tracers = make([]*counter, len(cfgs))
	}
	deadline := time.Now().Add(d)
	for batch := int64(1); time.Now().Before(deadline); batch++ {
		for i := range tracers {
			tracers[i] = &counter{}
			cfgs[i].Tracer = tracers[i]
		}
		obs := &runTimer{start: make([]time.Duration, len(cfgs)), took: make([]time.Duration, len(cfgs))}
		_, a0 := readMem()
		t0 := time.Now()
		outs := experiments.RunAllObserved(cfgs, procs, obs)
		t1 := time.Now()
		_, a1 := readMem()
		l.batches = append(l.batches, t1.Sub(t0))
		l.allocs += a1 - a0
		l.runs = append(l.runs, obs.took...)
		l.attempted += len(outs)
		if log != nil {
			parent := log.add("experiments.RunAll", 0, batch, t0, t1)
			for i := range outs {
				st := t0.Add(obs.start[i])
				log.add("experiments.Run", parent, batch<<16|int64(i), st, st.Add(obs.took[i]))
			}
		}
		if corrupt && batch == 1 {
			outs[0].Result.CPUJ *= 1 + 1e-9
		}
		for i, o := range outs {
			switch {
			case o.Err != nil:
				rep.mismatch("run %d (%s): %v", i, in.bodies[i], o.Err)
			case !reflect.DeepEqual(o.Result, in.refs[i]):
				rep.mismatch("run %d (%s) differs from its fresh-session reference", i, in.bodies[i])
			}
		}
		l.results = l.results[:0]
		for _, o := range outs {
			l.results = append(l.results, o.Result)
		}
		if log != nil {
			for i, o := range outs {
				l.counts.viewerSec += sessionDurS
				addResultCounts(l.counts, &o.Result)
				l.counts.addTracer(tracers[i])
				l.events += tracers[i].events
			}
		}
	}
}

// addResultCounts folds the work counts a RunResult carries.
func addResultCounts(w *workCounts, r *experiments.RunResult) {
	w.n["player.dropped_frames"] += float64(r.QoE.DroppedFrames)
	w.n["player.rebuffers"] += float64(r.QoE.RebufferCount)
	w.n["player.fetches"] += float64(r.Fetches)
	w.n["abr.rung_switches"] += float64(r.QoE.RungSwitches)
	w.n["cpu.opp_switches"] += float64(r.OPPTransitions)
	w.n["netsim.promotions"] += float64(r.RadioPromotions)
}

func runSessions(opt options) (*report, error) {
	var in *sessionsInput
	setup, err := timeSetups(func(rep int) error {
		got, err := buildSessions(opt.seed, rep)
		if rep == 0 {
			in = got
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	d := time.Duration(opt.seconds * float64(time.Second))
	if !opt.trace {
		rep := &report{Correct: true}
		stopHeap := heapPeak()
		var l sessionsLoop
		l.run(rep, in, d, nil, opt.corrupt)
		peak := stopHeap()
		ms := durationsMs(l.runs)
		rep.Attempted = l.attempted
		rep.set("setup_s", setup, "s")
		// The rate is taken at the median batch, so a burst of host
		// interference slows a few batches rather than the figure.
		perBatch := median(durationsMs(l.batches)) / 1e3
		rep.set("sim_rate_vsps", float64(len(in.cfgs)*sessionDurS)/perBatch, "vs/s")
		rep.set("lat_p50_ms", quantile(ms, 0.50), "ms")
		printTail("Run call", ms)
		rep.set("alloc_kb_per_viewer", float64(l.allocs)/1024/float64(l.attempted), "KB")
		rep.set("peak_heap_mb", peak, "MB")
		return rep, nil
	}

	rep := layerReport()
	stopProf, err := profileCPU()
	if err != nil {
		return nil, err
	}
	var plain sessionsLoop
	plain.run(rep, in, d/2, nil, opt.corrupt)
	shares, err := stopProf()
	if err != nil {
		return nil, err
	}
	for p, v := range shares {
		rep.setLayer(p+".self_share", v)
	}
	log := newSpanLog()
	var traced sessionsLoop
	traced.run(rep, in, d/2, log, false)
	rep.Attempted = plain.attempted + traced.attempted

	plainRun, tracedRun := mean(durationsMs(plain.runs)), mean(durationsMs(traced.runs))
	overhead := tracedRun / plainRun
	rep.setLayer("trace.overhead_ratio", overhead)
	eventsPerRun := float64(traced.events) / float64(traced.attempted)
	rep.setLayer("sim.host_ns_per_event", plainRun*1e6/eventsPerRun)
	counts := traced.counts.perVS()
	for n, v := range counts {
		rep.setLayer(n, v)
	}
	samples := make([]float64, len(plain.results))
	for i, r := range plain.results {
		samples[i] = r.TotalJ()
	}
	if err := probeLayers(rep, log, opt.seed, in.bodies, plain.results, samples); err != nil {
		return nil, err
	}
	return rep, log.finish(opt, counts, overhead)
}
