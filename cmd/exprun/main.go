// Command exprun regenerates the evaluation's tables and figures.
//
// Experiments fan out through the campaign worker pool at two levels:
// whole experiments run concurrently (-parallel), and each experiment's
// own config grid is batched across GOMAXPROCS workers internally. Every
// run is deterministic, so output is byte-identical for any worker count.
//
// Usage:
//
//	exprun                    # run every experiment
//	exprun -list              # list experiment IDs
//	exprun -exp f5,f6         # run selected experiments
//	exprun -parallel 8        # experiment-level worker count
//	exprun -progress          # campaign progress on stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"videodvfs"
	"videodvfs/internal/campaign"
	"videodvfs/internal/experiments"
	"videodvfs/internal/profiling"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "exprun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("exprun", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		exp      = fs.String("exp", "", "comma-separated experiment IDs (default: all)")
		format   = fs.String("format", "text", "output format: text, markdown, csv")
		parallel = fs.Int("parallel", runtime.NumCPU(), "experiments built concurrently (each batches its own runs internally)")
		progress = fs.Bool("progress", false, "print campaign progress to stderr")
		traceDir = fs.String("trace-dir", "", "write one JSONL event trace per simulation run into this directory")
		strict   = fs.Bool("strict", false, "audit every simulation run against the simulator's invariants; any breach fails its experiment")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile (after the campaign) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()
	runFn, err := newRunner(experiments.Run, *strict, *traceDir)
	if err != nil {
		return err
	}
	if *list {
		for _, id := range videodvfs.ExperimentIDs() {
			fmt.Println(id)
		}
		return nil
	}
	ids := videodvfs.ExperimentIDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
	}

	jobs := make([]campaign.Job[string], len(ids))
	for i, id := range ids {
		id := id
		format := *format
		jobs[i] = func() (string, error) {
			build, err := experiments.Get(id)
			if err != nil {
				return "", err
			}
			tab, err := build(runFn)
			if err != nil {
				return "", err
			}
			return tab.Render(format)
		}
	}
	var obs campaign.Observer
	if *progress {
		obs = &campaign.LogObserver{W: os.Stderr, Every: 1}
	}
	outs := campaign.Do(jobs, campaign.Options[string]{Workers: *parallel, Observer: obs})
	// Print in input order; fail on the first error but keep the tables
	// that did build ahead of it.
	for i, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", ids[i], o.Err)
		}
		fmt.Println(o.Value)
	}
	return nil
}

// newRunner returns the run function every experiment simulates
// through: base, wrapped for -strict and -trace-dir when set.
func newRunner(base experiments.RunFunc, strict bool, traceDir string) (experiments.RunFunc, error) {
	fn := base
	if strict {
		fn = strictRunner(fn)
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		fn = traceDirRunner(traceDir, fn)
	}
	return fn, nil
}

// strictRunner wraps next so every run audits its event stream against
// the simulator's invariants; a breach fails the run.
func strictRunner(next experiments.RunFunc) experiments.RunFunc {
	return func(cfg experiments.RunConfig) (experiments.RunResult, error) {
		cfg.Strict = true
		return next(cfg)
	}
}

// traceDirRunner wraps next so every run writes its event trace as one
// JSONL file into dir, named <gov>_<net>_<rung>_seed<seed>_<seq>.jsonl
// from the run's config axes plus a per-name sequence number. The
// sequence assignment is serialized, but with concurrent runs the mapping
// of sequence numbers to runs depends on scheduling order. Each file's
// contents remain deterministic. A config that already carries a Tracer
// keeps it and gets no file.
func traceDirRunner(dir string, next experiments.RunFunc) experiments.RunFunc {
	var mu sync.Mutex
	seq := make(map[string]int)
	return func(cfg experiments.RunConfig) (experiments.RunResult, error) {
		if cfg.Tracer != nil {
			return next(cfg)
		}
		// Name the file after the axes the run resolves, defaults included.
		net, rung := cfg.Net, cfg.Rung.Name
		if net == "" {
			net = experiments.NetWiFi
		}
		if rung == "" {
			rung = video.R720p.Name
		}
		base := fmt.Sprintf("%s_%s_%s_seed%d", cfg.Governor, net, rung, cfg.Seed)
		mu.Lock()
		n := seq[base]
		seq[base] = n + 1
		mu.Unlock()
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s_%03d.jsonl", base, n)))
		if err != nil {
			return experiments.RunResult{}, fmt.Errorf("trace: %w", err)
		}
		sink := trace.NewJSONL(f)
		cfg.Tracer = sink
		res, err := next(cfg)
		if cerr := sink.Close(); cerr != nil && err == nil {
			return experiments.RunResult{}, fmt.Errorf("trace sink: %w", cerr)
		}
		return res, err
	}
}
