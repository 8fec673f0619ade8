package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "recompute digests.json")

// TestPinDigests recomputes the cohort-cell digest of every pool entry
// and rewrites digests.json. It runs only with -update: the benchmark
// itself checks the pinned digests on every run.
func TestPinDigests(t *testing.T) {
	if !*update {
		t.Skip("pass -update to recompute digests.json")
	}
	pins := map[string]string{}
	for e := 0; e < cohortPoolSize; e++ {
		cfg, _, err := cohortConfig(int64(e))
		if err != nil {
			t.Fatal(err)
		}
		run, err := runCohortOnce(cfg, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := run.res
		if r.Completed != r.Viewers || r.HorizonCut != 0 || r.Errors != 0 {
			t.Fatalf("entry %d: %d/%d completed, %d cut, %d errors", e, r.Completed, r.Viewers, r.HorizonCut, r.Errors)
		}
		if pins[fmt.Sprint(e)], err = cohortDigest(r, run.rollups); err != nil {
			t.Fatal(err)
		}
		t.Logf("entry %d: %d rollups, sim end %v, rebuffer mean %.4f, %v", e, len(run.rollups), r.SimEnd, r.RebufferRatio.Mean, run.wall)
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("digests.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
