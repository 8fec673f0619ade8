package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"videodvfs/internal/trace"
)

// layerUnits lists every per-layer metric in BENCHMARK.json order. A
// traced run prints all of them; a layer the workload does not exercise
// reads 0 (see README.md, "Per-layer metrics").
var layerUnits = []struct{ name, unit string }{}

func init() {
	for _, p := range sharePackages {
		layerUnits = append(layerUnits, struct{ name, unit string }{p + ".self_share", "ratio"})
	}
	for _, c := range countNames {
		layerUnits = append(layerUnits, struct{ name, unit string }{c, "1/vs"})
	}
	for _, m := range [][2]string{
		{"sim.host_ns_per_event", "ns"},
		{"trace.overhead_ratio", "ratio"},
		{"cohort.shard_max_s", "s"},
		{"cohort.shard_mean_s", "s"},
		{"cohort.shard_imbalance", "ratio"},
		{"cohort.merge_us", "us"},
		{"stats.sketch_add_ns", "ns"},
		{"stats.sketch_merge_us", "us"},
		{"server.decode_us", "us"},
		{"experiments.config_key_us", "us"},
		{"server.encode_us", "us"},
		{"server.body_kb", "KB"},
		{"server.runner_p50_us", "us"},
		{"server.runner_p99_us", "us"},
		{"server.pre_runner_us", "us"},
		{"server.post_runner_us", "us"},
		{"server.hit_us", "us"},
		{"server.miss_us", "us"},
		{"server.cache_hit_ratio", "ratio"},
		{"server.cache_evictions", "count"},
		{"server.cache_coalesced", "count"},
		{"campaign.worker_busy_ratio", "ratio"},
		{"video.generate_us", "us"},
		{"netsim.gen_trace_us", "us"},
		{"loadgen.lag_p99_ms", "ms"},
	} {
		layerUnits = append(layerUnits, struct{ name, unit string }{m[0], m[1]})
	}
}

// layerReport starts a traced run's report with every per-layer metric at
// 0, so a layer the workload never reaches still appears.
func layerReport() *report {
	r := &report{Correct: true}
	for _, l := range layerUnits {
		r.set(l.name, 0, l.unit)
	}
	return r
}

// setLayer overwrites one per-layer metric, keeping its declared unit.
func (r *report) setLayer(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	r.set(name, v, m.Unit)
}

// ---- spans ----

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced code paths call it unconditionally.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent int, req int64, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
	return id
}

// begin opens a span whose end is set by the returned function.
func (l *spanLog) begin(name string, parent int, req int64) (id int, end func()) {
	if l == nil {
		return 0, func() {}
	}
	start := time.Now()
	l.mu.Lock()
	id = len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start.Sub(l.t0))})
	l.mu.Unlock()
	return id, func() {
		end := l.now()
		l.mu.Lock()
		l.spans[id-1].End = end
		l.mu.Unlock()
	}
}

// layerRow is one span name's totals: calls, total time, and self time
// (total minus the part of each span's interval its children cover).
type layerRow struct {
	name        string
	calls       int
	total, self time.Duration
}

func (l *spanLog) table() []layerRow {
	children := map[int][][2]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range l.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.calls++
		r.total += time.Duration(d)
		r.self += time.Duration(d - covered(children[s.ID], s.Start, s.End))
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum, cur int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// finish prints the per-layer table and the counts to stdout and writes
// every span as JSON lines under .bench_build/trace.
func (l *spanLog) finish(opt options, counts map[string]float64, overhead float64) error {
	fmt.Printf("per-layer spans (%s, seed %d): %d spans, tracing overhead %.3fx vs untraced\n",
		opt.workload, opt.seed, len(l.spans), overhead)
	fmt.Printf("  %-28s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, r := range l.table() {
		fmt.Printf("  %-28s %8d %12.3f %12.3f\n", r.name, r.calls,
			float64(r.total)/1e6, float64(r.self)/1e6)
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-28s %12s\n", "count", "per_vs")
	for _, n := range names {
		fmt.Printf("  %-28s %12.4f\n", n, counts[n])
	}
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- simulated work counts ----

// countNames are the per-viewer-second work counts, named by the module
// doing the work.
var countNames = []string{
	"core.decisions", "decode.frames", "player.dropped_frames", "player.rebuffers",
	"player.fetches", "abr.rung_switches", "cpu.opp_switches", "cpu.busy_transitions",
	"netsim.rrc_transitions", "netsim.promotions", "energy.power_samples",
}

// counter is a trace.Tracer that only counts events. A run calls its
// tracer from one goroutine, so each run gets its own counter.
type counter struct {
	decisions, decoded, busy, rrc, power, events int64
}

var _ trace.Tracer = (*counter)(nil)

func (c *counter) Decision(trace.DecisionEvent) { c.decisions++; c.events++ }
func (c *counter) Frame(e trace.FrameEvent) {
	if e.Stage == trace.StageDecodeEnd {
		c.decoded++
	}
	c.events++
}
func (c *counter) OPP(trace.OPPEvent)           { c.events++ }
func (c *counter) CPUBusy(trace.CPUBusyEvent)   { c.busy++; c.events++ }
func (c *counter) RRC(trace.RRCEvent)           { c.rrc++; c.events++ }
func (c *counter) ABR(trace.ABREvent)           { c.events++ }
func (c *counter) Buffer(trace.BufferEvent)     { c.events++ }
func (c *counter) Playback(trace.PlaybackEvent) { c.events++ }
func (c *counter) Power(trace.PowerEvent)       { c.power++; c.events++ }

// workCounts accumulates simulated work over a set of runs.
type workCounts struct {
	viewerSec float64
	n         map[string]float64
}

func newWorkCounts() *workCounts { return &workCounts{n: map[string]float64{}} }

// addTracer folds a counting tracer's totals in.
func (w *workCounts) addTracer(c *counter) {
	w.n["core.decisions"] += float64(c.decisions)
	w.n["decode.frames"] += float64(c.decoded)
	w.n["cpu.busy_transitions"] += float64(c.busy)
	w.n["netsim.rrc_transitions"] += float64(c.rrc)
	w.n["energy.power_samples"] += float64(c.power)
}

// perVS returns every count per simulated viewer-second.
func (w *workCounts) perVS() map[string]float64 {
	out := make(map[string]float64, len(countNames))
	for _, n := range countNames {
		if w.viewerSec > 0 {
			out[n] = w.n[n] / w.viewerSec
		} else {
			out[n] = 0
		}
	}
	return out
}

// ---- memory ----

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readMem returns the heap the last GC marked live and the bytes
// allocated since the process started.
func readMem() (liveBytes, allocBytes uint64) {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapPeak samples the marked-live heap every 2 ms until stop returns the
// peak in MB. Live bytes, not heap objects: the latter count garbage
// waiting for the next cycle and so follow GC timing, not the workload.
func heapPeak() (stop func() float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if h, _ := readMem(); h > peak {
				peak = h
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		if h, _ := readMem(); h > peak {
			peak = h
		}
		return float64(peak) / (1 << 20)
	}
}

// ---- CPU profile ----

// sharePackages are the packages a CPU profile's self samples are
// bucketed into; anything else lands in "other".
var sharePackages = []string{
	"sim", "cpu", "core", "governor", "decode", "video", "netsim", "player", "abr",
	"energy", "stats", "experiments", "cohort", "server", "campaign", "runtime",
	"rand", "math", "json", "http", "other",
}

// profileCPU starts a CPU profile; stop ends it and returns each
// package's share of self samples.
func profileCPU() (stop func() (map[string]float64, error), err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		return packageShares(buf.Bytes())
	}, nil
}
