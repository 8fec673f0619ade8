package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"videodvfs/internal/experiments"
	"videodvfs/internal/server"
	"videodvfs/internal/sim"
)

// The dvfsd-mix traffic: an open loop of Poisson arrivals against an
// in-process dvfsd (two pool workers) over at most two keep-alive
// connections. Bodies are drawn Zipf from a catalog whose head reuses a
// few content seeds (warm streams) and whose tail uses a fresh seed per
// entry, so a tail miss also pays stream and trace generation.
const (
	catalogSize  = 400
	catalogHead  = 100
	zipfS        = 1.1
	dvfsdDurS    = 60
	dvfsdConns   = 2
	dvfsdWorkers = 2
	// cacheShare sizes the result cache as a share of the catalog's body
	// bytes, so LRU evicts and about half the lookups hit.
	cacheShare = 0.1
	// refRate is the arrival rate, about a tenth of what the daemon
	// sustains on a 2-core host, so a host that slows down for a while
	// does not tip the loop into queueing; the tail is the miss path.
	refRate = 200.0
	// warmShare of --seconds fills the result cache before anything is
	// timed.
	warmShare = 0.15
)

// catalogEntry is one /v1/run body with what its response must be.
type catalogEntry struct {
	body []byte
	cfg  experiments.RunConfig // as the server prepares it
	key  string
	// result is the reference result's JSON; nil until computed. Tail
	// references are computed after the measurement, so the server is
	// the first to generate a tail entry's stream.
	result []byte
}

// entryID identifies a catalog entry from a RunConfig the server hands
// its Runner.
type entryID struct {
	gov  experiments.GovernorID
	net  experiments.NetKind
	abr  experiments.ABRID
	seed int64
}

func idOf(c experiments.RunConfig) entryID { return entryID{c.Governor, c.Net, c.ABR, c.Seed} }

// runnerCall is one simulation the server's pool ran.
type runnerCall struct {
	entry      int
	start, end time.Time
}

type dvfsd struct {
	entries []catalogEntry
	byID    map[entryID]int

	srv    *server.Server
	ts     *httptest.Server
	client *http.Client

	mu      sync.Mutex
	calls   []runnerCall
	first   map[int][]byte // first 200 body per entry
	corrupt bool
}

// buildCatalog generates the catalog for (seed, rep). Rank i (the Zipf
// rank) fixes the request's shape — governor, then network, then ABR
// cycle with i — so every seed offers the same mix of large
// (energyaware, oracle) and small bodies at the same popularity, and the
// seed draws only the content: the head shares two content seeds, each
// tail entry has its own.
func buildCatalog(seed int64, rep int) ([]catalogEntry, error) {
	govs, nets := experiments.GovernorIDs(), experiments.SyntheticNetKinds()
	abrs := []experiments.ABRID{experiments.ABRFixed, experiments.ABRBBA}
	shapes := len(govs) * len(nets) * len(abrs)
	bodies := make([][]byte, catalogSize)
	for i := range bodies {
		cs := derive(seed, "dvfsd/tail", rep*catalogSize+i)
		if i < catalogHead {
			cs = derive(seed, "dvfsd/head", rep*catalogSize+i/shapes)
		}
		bodies[i] = requestBody(govs[i%len(govs)], nets[i/len(govs)%len(nets)],
			abrs[i/(len(govs)*len(nets))%len(abrs)], dvfsdDurS, cs)
	}
	entries := make([]catalogEntry, len(bodies))
	for i, b := range bodies {
		cfg, err := decodeConfig(b)
		if err != nil {
			return nil, err
		}
		// The server's own default horizon, made explicit as its
		// resource bound does before keying the cache.
		if cfg.Horizon <= 0 {
			cfg.Horizon = cfg.Duration*6 + 60*sim.Second
		}
		key, ok := experiments.ConfigKey(cfg)
		if !ok {
			return nil, fmt.Errorf("catalog entry %s is not cacheable", b)
		}
		entries[i] = catalogEntry{body: b, cfg: cfg, key: key}
		if i < catalogHead {
			if err := entries[i].computeResult(); err != nil {
				return nil, err
			}
		}
	}
	return entries, nil
}

func (e *catalogEntry) computeResult() error {
	res, err := reference(e.cfg)
	if err != nil {
		return fmt.Errorf("reference %s: %w", e.body, err)
	}
	e.result, err = json.Marshal(res)
	return err
}

// newDvfsd starts the daemon behind a loopback listener.
func newDvfsd(entries []catalogEntry) *dvfsd {
	d := &dvfsd{entries: entries, byID: map[entryID]int{}, first: map[int][]byte{}}
	var est, large, small, nLarge, nSmall int
	for i, e := range entries {
		d.byID[idOf(e.cfg)] = i
		if e.result == nil {
			continue
		}
		if e.cfg.Governor == experiments.GovEnergyAware || e.cfg.Governor == experiments.GovOracle {
			large, nLarge = large+len(e.result), nLarge+1
		} else {
			small, nSmall = small+len(e.result), nSmall+1
		}
	}
	// Estimate the tail's bytes from the head's per-class means.
	for _, e := range entries {
		switch {
		case e.result != nil:
			est += len(e.result)
		case e.cfg.Governor == experiments.GovEnergyAware || e.cfg.Governor == experiments.GovOracle:
			est += large / max(nLarge, 1)
		default:
			est += small / max(nSmall, 1)
		}
	}
	d.srv = server.New(server.Config{
		Workers:    dvfsdWorkers,
		CacheBytes: int64(cacheShare * float64(est)),
		Runner:     d.runner,
	})
	d.ts = httptest.NewServer(d.srv.Handler())
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     dvfsdConns,
		MaxIdleConnsPerHost: dvfsdConns,
		DisableCompression:  true,
	}}
	return d
}

func (d *dvfsd) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx) //nolint:errcheck // every run has finished by now
}

// runner is the server's Runner: experiments.Run, timed per call.
func (d *dvfsd) runner(cfg experiments.RunConfig) (experiments.RunResult, error) {
	t0 := time.Now()
	res, err := experiments.Run(cfg)
	t1 := time.Now()
	idx, ok := d.byID[idOf(cfg)]
	if !ok {
		idx = -1
	}
	d.mu.Lock()
	d.calls = append(d.calls, runnerCall{entry: idx, start: t0, end: t1})
	d.mu.Unlock()
	return res, err
}

// arrival is one scheduled request.
type arrival struct {
	at    time.Duration // offset from the phase start
	entry int
}

// schedule draws a Poisson arrival sequence at rate over span.
func (d *dvfsd) schedule(seed int64, name string, n int, rate float64, span time.Duration) []arrival {
	rng := rand.New(rand.NewSource(derive(seed, name, n)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(d.entries)-1))
	var out []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= span {
			return out
		}
		out = append(out, arrival{at: t, entry: int(zipf.Uint64())})
	}
}

// outcome is one request's timeline and verdict.
type outcome struct {
	entry            int
	due, sent, done  time.Time
	cache            string
	fail             string
	runStart, runEnd time.Time // matched Runner call (misses)
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// fire plays an arrival sequence open loop and waits for every request.
func (d *dvfsd) fire(arrivals []arrival) []outcome {
	outs := make([]outcome, len(arrivals))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, a := range arrivals {
		due := t0.Add(a.at)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		wg.Add(1)
		go func(o *outcome, entry int, due time.Time) {
			defer wg.Done()
			o.entry, o.due, o.sent = entry, due, time.Now()
			o.fail = d.send(o)
			o.done = time.Now()
		}(&outs[i], a.entry, due)
	}
	wg.Wait()
	return outs
}

// send posts one request and checks its response; it returns why the
// request failed, or "".
func (d *dvfsd) send(o *outcome) string {
	e := &d.entries[o.entry]
	resp, err := d.client.Post(d.ts.URL+"/v1/run", "application/json", bytes.NewReader(e.body))
	if err != nil {
		return err.Error()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err.Error()
	}
	o.cache = resp.Header.Get("X-Dvfsd-Cache")
	if resp.StatusCode != http.StatusOK {
		return fmt.Sprintf("status %d: %s", resp.StatusCode, body)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.corrupt {
		d.corrupt = false
		body = bytes.Replace(body, []byte(`"result":{`), []byte(`"result":{ `), 1)
	}
	first, seen := d.first[o.entry]
	if !seen {
		d.first[o.entry] = body
		return ""
	}
	if !bytes.Equal(first, body) {
		return "body differs from an earlier response for the same request"
	}
	return ""
}

// verify checks the first body served for every entry against its key
// and reference result, computing the tail references now.
func (d *dvfsd) verify(rep *report) error {
	for idx, body := range d.first {
		e := &d.entries[idx]
		if e.result == nil {
			if err := e.computeResult(); err != nil {
				return err
			}
		}
		var got struct {
			Key    string          `json:"key"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			rep.mismatch("entry %d: undecodable body: %v", idx, err)
			continue
		}
		if got.Key != e.key {
			rep.mismatch("entry %d: key %s, ConfigKey %s", idx, got.Key, e.key)
		}
		if !bytes.Equal(got.Result, e.result) {
			rep.mismatch("entry %d (%s): result differs from the reference", idx, e.body)
		}
	}
	return nil
}

// tally counts attempts and failures of a phase into rep.
func tally(rep *report, outs []outcome) {
	rep.Attempted += len(outs)
	for _, o := range outs {
		if o.fail != "" {
			rep.mismatch("request for entry %d: %s", o.entry, o.fail)
		}
	}
}

func latenciesMs(outs []outcome) []float64 {
	ms := make([]float64, len(outs))
	for i := range outs {
		ms[i] = float64(outs[i].latency()) / 1e6
	}
	return ms
}

// callsSince returns the Runner calls that started at or after t.
func (d *dvfsd) callsSince(t time.Time) []runnerCall {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []runnerCall
	for _, c := range d.calls {
		if !c.start.Before(t) {
			out = append(out, c)
		}
	}
	return out
}

// simRate is simulated viewer-seconds per second of Runner time, at the
// median Runner call.
func simRate(calls []runnerCall) float64 {
	secs := make([]float64, len(calls))
	for i, c := range calls {
		secs[i] = c.end.Sub(c.start).Seconds()
	}
	return dvfsdDurS / median(secs)
}

func runDvfsdMix(opt options) (*report, error) {
	var d *dvfsd
	setup, err := timeSetups(func(rep int) error {
		es, err := buildCatalog(opt.seed, rep)
		if err != nil {
			return err
		}
		srv := newDvfsd(es)
		// Open both keep-alive connections before timing anything.
		var wg sync.WaitGroup
		errs := make([]error, dvfsdConns)
		for c := 0; c < dvfsdConns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				resp, err := srv.client.Get(srv.ts.URL + "/healthz")
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				errs[c] = err
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				srv.close()
				return err
			}
		}
		if rep == 0 {
			d = srv
		} else {
			srv.close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	total := time.Duration(opt.seconds * float64(time.Second))
	span := time.Duration((1 - warmShare) * float64(total))
	d.corrupt = opt.corrupt
	rep := &report{Correct: true}
	if opt.trace {
		rep = layerReport()
	}
	tally(rep, d.fire(d.schedule(opt.seed, "dvfsd/warm", 0, refRate, time.Duration(warmShare*float64(total)))))

	if !opt.trace {
		stopHeap := heapPeak()
		_, a0 := readMem()
		t0 := time.Now()
		ref := d.fire(d.schedule(opt.seed, "dvfsd/ref", 0, refRate, span))
		_, a1 := readMem()
		calls := d.callsSince(t0)
		tally(rep, ref)
		ms := latenciesMs(ref)
		peak := stopHeap()
		if err := d.verify(rep); err != nil {
			return nil, err
		}
		rep.set("setup_s", setup, "s")
		rep.set("sim_rate_vsps", simRate(calls), "vs/s")
		rep.set("lat_p50_ms", quantile(ms, 0.50), "ms")
		printTail("request", ms)
		rep.set("alloc_kb_per_viewer", float64(a1-a0)/1024/float64(len(ref)), "KB")
		rep.set("peak_heap_mb", peak, "MB")
		return rep, nil
	}

	stopProf, err := profileCPU()
	if err != nil {
		return nil, err
	}
	half := span / 2
	tA := time.Now()
	plain := d.fire(d.schedule(opt.seed, "dvfsd/ref", 0, refRate, half))
	plainCalls := d.callsSince(tA)
	shares, err := stopProf()
	if err != nil {
		return nil, err
	}
	for p, v := range shares {
		rep.setLayer(p+".self_share", v)
	}
	tally(rep, plain)
	h0, m0, c0 := d.srv.CacheStats()

	log := newSpanLog()
	tB := time.Now()
	seq := d.schedule(opt.seed, "dvfsd/ref", 1, refRate, half)
	traced := d.fire(seq)
	wallB := time.Since(tB)
	tally(rep, traced)
	calls := d.callsSince(tB)
	h1, m1, c1 := d.srv.CacheStats()
	if err := d.verify(rep); err != nil {
		return nil, err
	}

	// Match each miss to the Runner call that served it.
	byEntry := map[int][]runnerCall{}
	for _, c := range calls {
		byEntry[c.entry] = append(byEntry[c.entry], c)
	}
	var hitUs, missUs, preUs, postUs, runUs, lagMs []float64
	for i := range traced {
		o := &traced[i]
		req := int64(i + 1)
		root := log.add("loadgen.request", 0, req, o.due, o.done)
		log.add("loadgen.lag", root, req, o.due, o.sent)
		lagMs = append(lagMs, float64(o.sent.Sub(o.due))/1e6)
		if o.cache == "hit" {
			log.add("server.hit", root, req, o.sent, o.done)
			hitUs = append(hitUs, us(o.done.Sub(o.sent)))
			continue
		}
		for _, c := range byEntry[o.entry] {
			if !c.start.Before(o.sent) && !c.end.After(o.done) {
				o.runStart, o.runEnd = c.start, c.end
			}
		}
		if o.runStart.IsZero() {
			continue // coalesced onto another request's run
		}
		missUs = append(missUs, us(o.done.Sub(o.sent)))
		log.add("server.pre_runner", root, req, o.sent, o.runStart)
		log.add("server.runner", root, req, o.runStart, o.runEnd)
		log.add("server.post_runner", root, req, o.runEnd, o.done)
		preUs = append(preUs, us(o.runStart.Sub(o.sent)))
		postUs = append(postUs, us(o.done.Sub(o.runEnd)))
	}
	var busy time.Duration
	for _, c := range calls {
		runUs = append(runUs, us(c.end.Sub(c.start)))
		busy += c.end.Sub(c.start)
	}
	rep.setLayer("server.runner_p50_us", quantile(runUs, 0.5))
	rep.setLayer("server.runner_p99_us", quantile(runUs, 0.99))
	rep.setLayer("server.pre_runner_us", median(preUs))
	rep.setLayer("server.post_runner_us", median(postUs))
	rep.setLayer("server.hit_us", median(hitUs))
	rep.setLayer("server.miss_us", median(missUs))
	if looks := (h1 - h0) + (m1 - m0) + (c1 - c0); looks > 0 {
		rep.setLayer("server.cache_hit_ratio", float64(h1-h0)/float64(looks))
	}
	rep.setLayer("server.cache_coalesced", float64(c1))
	evictions, err := d.scrape("dvfsd_cache_evictions_total")
	if err != nil {
		return nil, err
	}
	rep.setLayer("server.cache_evictions", evictions)
	rep.setLayer("campaign.worker_busy_ratio", busy.Seconds()/(dvfsdWorkers*wallB.Seconds()))
	rep.setLayer("loadgen.lag_p99_ms", quantile(lagMs, 0.99))
	overhead := median(latenciesMs(traced)) / median(latenciesMs(plain))
	rep.setLayer("trace.overhead_ratio", overhead)

	// Work counts: every request of the traced sequence counted once, from
	// a counting-tracer run of its entry; events per Runner call give the
	// host time per event.
	perEntry := map[int]*workCounts{}
	events := map[int]float64{}
	for _, a := range seq {
		if perEntry[a.entry] != nil {
			continue
		}
		c := &counter{}
		cfg := d.entries[a.entry].cfg
		cfg.Tracer = c
		res, err := experiments.Run(cfg)
		if err != nil {
			return nil, err
		}
		w := newWorkCounts()
		w.viewerSec = dvfsdDurS
		addResultCounts(w, &res)
		w.addTracer(c)
		perEntry[a.entry], events[a.entry] = w, float64(c.events)
	}
	counts := newWorkCounts()
	for _, a := range seq {
		w := perEntry[a.entry]
		counts.viewerSec += w.viewerSec
		for n, v := range w.n {
			counts.n[n] += v
		}
	}
	var plainEvents float64
	var plainBusy time.Duration
	for _, c := range plainCalls {
		if ev, ok := events[c.entry]; ok {
			plainEvents += ev
			plainBusy += c.end.Sub(c.start)
		}
	}
	if plainEvents > 0 {
		rep.setLayer("sim.host_ns_per_event", float64(plainBusy)/plainEvents)
	}
	perVS := counts.perVS()
	for n, v := range perVS {
		rep.setLayer(n, v)
	}

	var bodies [][]byte
	var results []experiments.RunResult
	var energies []float64
	for idx := range d.first {
		var got struct {
			Result experiments.RunResult `json:"result"`
		}
		if err := json.Unmarshal(d.first[idx], &got); err != nil {
			return nil, err
		}
		bodies = append(bodies, d.entries[idx].body)
		results = append(results, got.Result)
		energies = append(energies, got.Result.TotalJ())
	}
	if err := probeLayers(rep, log, opt.seed, bodies, results, energies); err != nil {
		return nil, err
	}
	return rep, log.finish(opt, perVS, overhead)
}

// scrape reads one counter from the daemon's /metrics exposition.
func (d *dvfsd) scrape(name string) (float64, error) {
	resp, err := d.client.Get(d.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}
