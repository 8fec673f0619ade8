package experiments

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"

	"videodvfs/internal/cpu"
	"videodvfs/internal/netsim"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// runFresh executes cfg on a brand-new arena — the reference simulator.
func runFresh(t *testing.T, cfg RunConfig) RunResult {
	t.Helper()
	var res RunResult
	if err := NewSession().RunInto(cfg, &res); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	return res
}

// resetConfigs is the cross-config recycling gauntlet: consecutive entries
// differ in governor, network, device, codec, C-states, thermal model,
// latency mode, ABR, frame rate, and RRC override, so a single arena must
// rewind every component across maximally dissimilar runs.
func resetConfigs() []RunConfig {
	base := func() RunConfig {
		cfg := DefaultRunConfig()
		cfg.Duration = 8 * sim.Second
		cfg.Strict = true
		return cfg
	}
	fd := netsim.DefaultUMTS()
	fd.FastDormancy = true
	thermal := cpu.DefaultThermalConfig()

	cfgs := make([]RunConfig, 0, 12)

	cfg := base()
	cfgs = append(cfgs, cfg) // energyaware / const8 / flagship

	cfg = base()
	cfg.Governor = GovOndemand
	cfg.Net = NetLTE
	cfg.Device = cpu.DeviceMidrange()
	cfg.Seed = 7
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.Governor = GovOracle
	cfg.CStates = true
	cfg.Codec = "hevc"
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.Governor = GovPerformance
	cfg.Net = NetUMTS
	cfg.RRC = &fd
	cfg.Rung = video.R360p
	cfg.Duration = 6 * sim.Second
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.ABR = ABRRate
	cfg.Net = NetLTE
	cfg.Title = video.TitleNews
	cfg.Seed = 3
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.LowLatency = true
	cfg.FPS = 60
	cfg.Device = cpu.DeviceEfficient()
	cfg.Rung = video.R480p
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.Thermal = &thermal
	cfg.Governor = GovSchedutil
	cfg.Rung = video.R1080p
	cfg.Net = NetWiFi
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.ABR = ABRBBA
	cfg.Net = NetUMTS
	cfg.SegmentDur = 4 * sim.Second
	cfg.LowWaterSec = 3
	cfg.Background = false
	cfgs = append(cfgs, cfg)

	cfg = base()
	cfg.Governor = GovConservative
	cfg.DecodedQueueCap = 4
	cfg.CStates = true
	cfg.Seed = 11
	cfgs = append(cfgs, cfg)

	// Close the loop on the default shape so the arena ends where it
	// began after visiting every variant.
	cfgs = append(cfgs, base())
	return cfgs
}

// TestSessionResetDifferential is the differential battery's core: one
// arena recycled across maximally dissimilar configs must reproduce, for
// every config, the exact result of a fresh simulator — reflect.DeepEqual
// on the full RunResult and byte-identical JSONL traces — with the
// invariant checker armed on every run (Strict in each config).
func TestSessionResetDifferential(t *testing.T) {
	arena := NewSession()
	for i, cfg := range resetConfigs() {
		var freshBuf, recycledBuf bytes.Buffer

		fcfg := cfg
		fsink := trace.NewJSONL(&freshBuf)
		fcfg.Tracer = fsink
		want := runFresh(t, fcfg)
		if err := fsink.Close(); err != nil {
			t.Fatal(err)
		}

		rcfg := cfg
		rsink := trace.NewJSONL(&recycledBuf)
		rcfg.Tracer = rsink
		var got RunResult
		if err := arena.RunInto(rcfg, &got); err != nil {
			t.Fatalf("config %d: recycled run: %v", i, err)
		}
		if err := rsink.Close(); err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(want, got) {
			t.Errorf("config %d (%s/%s): recycled result diverges from fresh\nfresh:    %+v\nrecycled: %+v",
				i, cfg.Governor, cfg.Net, want, got)
		}
		if !bytes.Equal(freshBuf.Bytes(), recycledBuf.Bytes()) {
			t.Errorf("config %d (%s/%s): recycled JSONL trace diverges from fresh (%d vs %d bytes)",
				i, cfg.Governor, cfg.Net, freshBuf.Len(), recycledBuf.Len())
		}
	}
}

// TestSessionResetSameConfigRepeat pins the tightest reuse contract: the
// same config rerun on one arena is bit-identical run after run (the
// dvfsd/campaign steady state), including the recycled-result-struct path.
func TestSessionResetSameConfigRepeat(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.Duration = 8 * sim.Second
	cfg.Strict = true
	want := runFresh(t, cfg)

	arena := NewSession()
	var got RunResult
	for i := 0; i < 3; i++ {
		if err := arena.RunInto(cfg, &got); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("iteration %d diverges from fresh\nfresh: %+v\ngot:   %+v", i, want, got)
		}
	}
}

// TestSessionResetAfterError checks that an arena poisoned by a failed run
// (horizon cut mid-stream) recycles cleanly: the next run on the same
// arena matches a fresh simulator exactly.
func TestSessionResetAfterError(t *testing.T) {
	arena := NewSession()

	bad := DefaultRunConfig()
	bad.Duration = 8 * sim.Second
	bad.Horizon = 2 * sim.Second // guaranteed mid-run cut
	var res RunResult
	if err := arena.RunInto(bad, &res); err == nil {
		t.Fatal("horizon-cut run unexpectedly succeeded")
	}

	good := DefaultRunConfig()
	good.Duration = 8 * sim.Second
	good.Strict = true
	want := runFresh(t, good)
	var got RunResult
	if err := arena.RunInto(good, &got); err != nil {
		t.Fatalf("run after failed run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("arena poisoned by failed run\nfresh: %+v\ngot:   %+v", want, got)
	}
}

// ownRigs are the registry entries that drive their own engine and never
// simulate through the builder's run function.
var ownRigs = map[string]bool{"t1": true, "f1": true, "f2": true, "f15": true, "f21": true, "t7": true}

// TestDifferentialRegistry builds the entire 30-entry experiment registry
// twice — once through a run function that constructs a fresh simulator
// per run and once through the default recycled pool — and requires
// byte-identical formatted tables. This is the broadest net: every device,
// governor, network, codec, thermal, idle, SMP, and cluster configuration
// the evaluation exercises must survive session recycling, with the
// invariant checker armed on every run. The fresh runner counts its calls,
// so a builder that bypasses its run function (and would compare recycled
// with recycled) fails here.
func TestDifferentialRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry differential is not a -short test")
	}

	for _, id := range IDs() {
		builder, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}

		var calls atomic.Int64
		freshTab, freshErr := builder(func(cfg RunConfig) (RunResult, error) {
			calls.Add(1)
			cfg.Strict = true
			var res RunResult
			if err := NewSession().RunInto(cfg, &res); err != nil {
				return RunResult{}, err
			}
			return res, nil
		})
		if freshErr != nil {
			t.Fatalf("%s (fresh sessions): %v", id, freshErr)
		}
		if n := calls.Load(); (n > 0) == ownRigs[id] {
			t.Errorf("%s: fresh runner called %d times; want >0 for a Run-backed experiment, 0 for an own-engine rig", id, n)
		}

		recycledTab, err := builder(strictRun)
		if err != nil {
			t.Fatalf("%s (recycled sessions): %v", id, err)
		}

		if fresh, recycled := freshTab.Format(), recycledTab.Format(); fresh != recycled {
			t.Errorf("%s: recycled-session table diverges from fresh\n--- fresh ---\n%s\n--- recycled ---\n%s",
				id, fresh, recycled)
		}
	}
}
