// Command perfbench is the repository benchmark. It runs one named
// workload from a seed, checks every output the program produces, and
// prints one JSON line as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 they are the per-layer metrics, measured in a separate
// traced run (spans, counting tracer, CPU profile) whose span log is
// written under .bench_build/trace. Any failed output check makes the
// command exit 1.
//
// Run it through run.sh, which builds this package from the checkout:
//
//	bash perfbench/run.sh --workload sessions --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// procs pins the parallelism every workload runs at: two simulation
// workers (RunAll, the cohort's shard stepping, the dvfsd pool), whatever
// the machine, so a figure means the same thing on every host.
const procs = 2

// setupReps is how many times each workload builds its inputs; setup_s
// is the median, and every repetition starts cold (fresh seeds).
const setupReps = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// corrupt flips one checked output before its check, so the
	// benchmark's own test can prove a wrong output fails the command.
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records one metric. A non-finite value, a ratio over no samples,
// reads 0, which JSON can carry.
func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// mismatch records one failed output check.
func (r *report) mismatch(format string, args ...any) {
	r.Failed++
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

var workloads = map[string]func(options) (*report, error){
	"sessions":    runSessions,
	"cohort-cell": runCohortCell,
	"dvfsd-mix":   runDvfsdMix,
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload name: sessions, cohort-cell or dvfsd-mix")
	flag.Int64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.BoolVar(&opt.corrupt, "corrupt", false, "corrupt one output before its check (self-test)")
	flag.Parse()
	opt.trace = *traceFlag == 1
	run, ok := workloads[opt.workload]
	if !ok || opt.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sessions|cohort-cell|dvfsd-mix, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	rep, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opt.workload, err)
		os.Exit(1)
	}
	if rep.Attempted < 1 {
		rep.mismatch("no operation attempted")
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct || rep.Failed > 0 {
		os.Exit(1)
	}
}

// timeSetups runs build setupReps times, each with its own repetition
// index, and returns the median wall time in seconds.
func timeSetups(build func(rep int) error) (float64, error) {
	secs := make([]float64, setupReps)
	for i := range secs {
		t0 := time.Now()
		if err := build(i); err != nil {
			return 0, err
		}
		secs[i] = time.Since(t0).Seconds()
	}
	return quantile(secs, 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// printTail reports a latency tail for reading, not as a metric: on hosts
// whose speed drifts between runs the tails move far more than the bound
// a metric would need (see README.md, "Steadiness").
func printTail(what string, ms []float64) {
	fmt.Printf("%s latency over %d samples: p95 %.3f ms, p99 %.3f ms\n",
		what, len(ms), quantile(ms, 0.95), quantile(ms, 0.99))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
