package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"videodvfs/internal/experiments"
)

func TestList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectedExperiments(t *testing.T) {
	if err := run([]string{"-exp", "t1, f1,f2"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "f99"}); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	ferr := f()
	if cerr := w.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	out, rerr := io.ReadAll(r)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

// TestParallelOutputIdentical checks the end-to-end determinism promise:
// the tool's stdout is byte-identical whether experiments build serially
// or across workers.
func TestParallelOutputIdentical(t *testing.T) {
	args := func(workers string) []string {
		return []string{"-exp", "t1,f1,f2", "-parallel", workers}
	}
	serial := captureStdout(t, func() error { return run(args("1")) })
	parallel := captureStdout(t, func() error { return run(args("4")) })
	if serial == "" {
		t.Fatal("no output")
	}
	if serial != parallel {
		t.Fatalf("-parallel 4 output diverged from -parallel 1:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

func TestProgressFlag(t *testing.T) {
	if err := run([]string{"-exp", "t1", "-progress", "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestFormats(t *testing.T) {
	for _, format := range []string{"text", "markdown", "md", "csv"} {
		if err := run([]string{"-exp", "t1", "-format", format}); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
	}
	if err := run([]string{"-exp", "t1", "-format", "yaml"}); err == nil {
		t.Fatal("want error for unknown format")
	}
}

// recordRuns returns a run function that simulates through
// experiments.Run and records every config it sees.
func recordRuns() (experiments.RunFunc, func() []experiments.RunConfig) {
	var mu sync.Mutex
	var seen []experiments.RunConfig
	record := func(cfg experiments.RunConfig) (experiments.RunResult, error) {
		mu.Lock()
		seen = append(seen, cfg)
		mu.Unlock()
		return experiments.Run(cfg)
	}
	return record, func() []experiments.RunConfig {
		mu.Lock()
		defer mu.Unlock()
		return append([]experiments.RunConfig(nil), seen...)
	}
}

// traceExperiment is a small experiment that simulates through its run
// function (four runs).
const traceExperiment = "f16"

// buildWith builds experiment id through run.
func buildWith(t *testing.T, id string, run experiments.RunFunc) {
	t.Helper()
	build, err := experiments.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := build(run); err != nil {
		t.Fatal(err)
	}
}

func TestStrictFlag(t *testing.T) {
	base, seen := recordRuns()
	fn, err := newRunner(base, true, "")
	if err != nil {
		t.Fatal(err)
	}
	buildWith(t, traceExperiment, fn)
	cfgs := seen()
	if len(cfgs) == 0 {
		t.Fatal("the runner saw no configs")
	}
	for i, cfg := range cfgs {
		if !cfg.Strict {
			t.Errorf("config %d (%s seed %d) reached the runner without Strict", i, cfg.Governor, cfg.Seed)
		}
	}
	// End to end: -strict builds the experiment with every run audited.
	captureStdout(t, func() error { return run([]string{"-exp", traceExperiment, "-strict"}) })
}

func TestTraceDirFlag(t *testing.T) {
	base, seen := recordRuns()
	buildWith(t, traceExperiment, base)
	runs := len(seen())
	if runs == 0 {
		t.Fatal("the experiment made no runs")
	}

	dir := filepath.Join(t.TempDir(), "traces")
	captureStdout(t, func() error { return run([]string{"-exp", traceExperiment, "-trace-dir", dir}) })
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != runs {
		t.Fatalf("-trace-dir wrote %d files, want one per run (%d)", len(entries), runs)
	}
	name := regexp.MustCompile(`^[a-z0-9]+_[a-z0-9]+_[0-9]+p_seed-?[0-9]+_[0-9]{3}\.jsonl$`)
	for _, e := range entries {
		if !name.MatchString(e.Name()) {
			t.Errorf("trace file %q does not follow <gov>_<net>_<rung>_seed<seed>_<seq>.jsonl", e.Name())
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		lines := 0
		for sc.Scan() {
			lines++
			var ev struct {
				T  *float64 `json:"t"`
				Ev string   `json:"ev"`
			}
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("%s line %d: %v", e.Name(), lines, err)
			}
			if ev.T == nil || ev.Ev == "" {
				t.Fatalf("%s line %d lacks t or ev: %s", e.Name(), lines, sc.Bytes())
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if lines == 0 {
			t.Errorf("%s is empty", e.Name())
		}
	}
}
