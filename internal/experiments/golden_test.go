package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden files instead of diffing against them:
//
//	go test ./internal/experiments -run TestGoldenTables -update
var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt from current output")

// goldenPath returns the pinned rendering of one experiment.
func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

// TestGoldenTables pins every registry experiment's exact rendered output.
// The whole evaluation is deterministic — every run derives its randomness
// from config seeds — so any diff here is a real behavior change: either
// an intended model change (rerun with -update and review the diff) or a
// regression (fix it). The builders execute through the campaign pool, so
// this suite also re-proves on every CI run that parallel execution
// leaves all 30 tables byte-identical.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite rebuilds the full evaluation")
	}
	// Run the whole evaluation with the invariant checker armed: beyond
	// byte-identical output, every run must also satisfy the simulator's
	// conservation laws (DESIGN.md §10). Strict mode only observes the
	// event stream, so it cannot change the tables.
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			b, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := b(strictRun)
			if err != nil {
				t.Fatal(err)
			}
			got := tab.Format()
			path := goldenPath(id)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("table %s drifted from golden output:\n%s", id, diffLines(string(want), got))
			}
		})
	}
}

// diffLines renders a minimal line diff for a golden mismatch.
func diffLines(want, got string) string {
	wantLines := strings.Split(want, "\n")
	gotLines := strings.Split(got, "\n")
	var b strings.Builder
	n := len(wantLines)
	if len(gotLines) > n {
		n = len(gotLines)
	}
	for i := 0; i < n; i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w == g {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  golden: %q\n  got:    %q\n", i+1, w, g)
	}
	return b.String()
}

// TestGoldenFilesCoverRegistry fails when a golden file is orphaned (its
// experiment left the registry) or an experiment has no pinned output,
// keeping testdata/golden and the registry in lockstep.
func TestGoldenFilesCoverRegistry(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatalf("golden dir missing (run TestGoldenTables with -update): %v", err)
	}
	known := make(map[string]bool)
	for _, id := range IDs() {
		known[id] = true
	}
	seen := make(map[string]bool)
	for _, e := range entries {
		id := strings.TrimSuffix(e.Name(), ".txt")
		if !known[id] {
			t.Errorf("orphaned golden file %s: no experiment %q in the registry", e.Name(), id)
		}
		seen[id] = true
	}
	for id := range known {
		if !seen[id] {
			t.Errorf("experiment %s has no golden file (run TestGoldenTables with -update)", id)
		}
	}
}
