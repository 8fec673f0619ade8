package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON reads the metric declarations from the repository's
// BENCHMARK.json.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// sameMetrics reports whether rep prints exactly the declared metrics.
func sameMetrics(t *testing.T, workload string, rep report, want map[string]string) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", workload, len(rep.Metrics), len(want))
	}
	for name, unit := range want {
		if m, ok := rep.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("%s: metric %s = %+v, declared with unit %s", workload, name, m, unit)
		}
	}
}

// TestCorruptOutputFailsCommand builds the benchmark and runs every
// workload twice: as is, where the checks must pass and the command exit
// 0, and with one output corrupted before its check, where the command
// must report correct=false and exit non-zero. A clean run must print
// exactly the end-to-end metrics BENCHMARK.json declares.
func TestCorruptOutputFailsCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, _ := benchmarkJSON(t)
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	root := t.TempDir()
	for name := range workloads {
		for _, corrupt := range []bool{false, true} {
			args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0"}
			if corrupt {
				args = append(args, "--corrupt")
			}
			cmd := exec.Command(bin, args...)
			cmd.Dir = root
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				t.Fatalf("%s: %v", name, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var rep report
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil {
				t.Fatalf("%s corrupt=%v: last line %q: %v\nstderr: %s", name, corrupt, lines[len(lines)-1], jerr, stderr.String())
			}
			switch {
			case corrupt && (err == nil || rep.Correct || rep.Failed == 0):
				t.Errorf("%s: corrupted output passed: exit %v, %+v", name, err, rep)
			case !corrupt && (err != nil || !rep.Correct || rep.Failed != 0):
				t.Errorf("%s: clean run failed: exit %v, %+v\nstderr: %s", name, err, rep, stderr.String())
			case !corrupt:
				sameMetrics(t, name, rep, endToEnd)
			}
		}
	}
}

// TestTracedRunPrintsEveryLayer runs each workload traced and checks that
// the report names exactly the per-layer metrics BENCHMARK.json declares
// and that the span log was written.
func TestTracedRunPrintsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	_, perLayer := benchmarkJSON(t)
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	root := t.TempDir()
	for name := range workloads {
		cmd := exec.Command(bin, "--workload", name, "--seed", "3", "--seconds", "2", "--trace", "1")
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: traced run failed its checks: %+v", name, rep)
		}
		sameMetrics(t, name, rep, perLayer)
		if _, err := os.Stat(filepath.Join(root, ".bench_build", "trace", name+"-seed3.jsonl")); err != nil {
			t.Errorf("%s: span log: %v", name, err)
		}
	}
}
