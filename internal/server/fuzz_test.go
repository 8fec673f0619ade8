package server

import (
	"bytes"
	"errors"
	"testing"

	"videodvfs/internal/cohort"
	"videodvfs/internal/experiments"
)

// FuzzDecodeRunRequest asserts the full untrusted-input path is total:
// arbitrary bytes either decode into a RunRequest whose Config() is a
// validated, cacheable RunConfig, or fail with a typed error — never a
// panic, never a config that Validate would reject.
func FuzzDecodeRunRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"duration_s": 30, "seed": 2}`))
	f.Add([]byte(`{"governor": "ondemand", "abr": "bba", "net": "lte", "duration_s": 60}`))
	f.Add([]byte(`{"device": "flagship", "title": "sports", "rung": "1080p", "fps": 24}`))
	f.Add([]byte(`{"policy": {"margin": 0.3, "beta": 0.5}}`))
	f.Add([]byte(`{"governor": "nosuch"}`))
	f.Add([]byte(`{"unknown_field": 1}`))
	f.Add([]byte(`{"duration_s": -5}`))
	f.Add([]byte(`{} trailing`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"duration_s": 1e309}`))
	f.Add([]byte("{\"title\": \"\x00\"}"))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRunRequest(bytes.NewReader(body))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
			return
		}
		cfg, err := req.Config()
		if err != nil {
			if !errors.Is(err, experiments.ErrInvalidConfig) {
				t.Fatalf("Config error %v does not wrap ErrInvalidConfig", err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Config() returned a config Validate rejects: %v", err)
		}
		// Requests carry no callbacks, so every accepted config must have
		// a stable content-addressed identity.
		k1, ok := experiments.ConfigKey(cfg)
		if !ok {
			t.Fatal("decoded config reported uncacheable")
		}
		if k2, _ := experiments.ConfigKey(cfg); k1 != k2 || len(k1) != 64 {
			t.Fatalf("cache key unstable or malformed: %q vs %q", k1, k2)
		}
	})
}

// fuzzMaxSweepRuns is the sweep cap the fuzzer admits under, dvfsd's
// default MaxSweepRuns.
const fuzzMaxSweepRuns = 1024

// FuzzDecodeSweepRequest holds /v1/sweep's untrusted-input path to the
// same contract as FuzzDecodeRunRequest. Like the handler, it checks
// Size against the cap before expanding, so a huge seed_range is
// refused without allocating its points; an accepted sweep expands to
// exactly Size validated configs.
func FuzzDecodeSweepRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"base": {"duration_s": 6}, "governors": ["ondemand", "energyaware"], "seeds": [1, 2, 3, 4]}`))
	f.Add([]byte(`{"base": {"duration_s": 6, "seed": 9}, "governors": ["performance"], "seed_range": [9, 10]}`))
	f.Add([]byte(`{"nets": ["lte", "umts"], "devices": ["midrange"], "titles": ["sports"], "rungs": ["480p", "1080p"]}`))
	f.Add([]byte(`{"seeds": [1], "seed_range": [1, 2]}`))
	f.Add([]byte(`{"seed_range": [5, 4]}`))
	f.Add([]byte(`{"seed_range": [0, 9223372036854775807]}`))
	f.Add([]byte(`{"seed_range": [-9223372036854775808, 9223372036854775807]}`))
	f.Add([]byte(`{"seed_range": [-9223372036854775808, 0]}`))
	f.Add([]byte(`{"seed_range": [9223372036854775806, 9223372036854775807]}`))
	f.Add([]byte(`{"governors": ["nosuch"]}`))
	f.Add([]byte(`{"base": {"duration_s": -1}}`))
	f.Add([]byte(`{"base": {}, "unknown": 1}`))
	f.Add([]byte(`{} {}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeSweepRequest(bytes.NewReader(body))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
			return
		}
		size := req.Size()
		if size < 1 {
			t.Fatalf("Size() = %d, want ≥ 1", size)
		}
		if size > fuzzMaxSweepRuns {
			return
		}
		cfgs, err := req.Configs()
		if err != nil {
			if !errors.Is(err, experiments.ErrInvalidConfig) {
				t.Fatalf("Configs error %v does not wrap ErrInvalidConfig", err)
			}
			return
		}
		if int64(len(cfgs)) != size {
			t.Fatalf("Size() = %d but Configs() expanded to %d points", size, len(cfgs))
		}
		for i, cfg := range cfgs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("point %d: Configs() returned a config Validate rejects: %v", i, err)
			}
		}
	})
}

// FuzzDecodeCohortRequest holds /v1/cohort's untrusted-input path to the
// same contract as FuzzDecodeRunRequest: a typed decode error, a typed
// config error, or a cohort config Validate accepts.
func FuzzDecodeCohortRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"base": {"duration_s": 6}, "viewers": 24, "shards": 6, "rollup_s": 5, "seed": 7}`))
	f.Add([]byte(`{"viewers": 48, "arrival": "burst", "arrival_window_s": 10, "cell": {"capacity_mbps": 40, "sectors": 4}}`))
	f.Add([]byte(`{"arrival": "poisson", "arrival_rate_per_sec": 2.5}`))
	f.Add([]byte(`{"arrival": "uniform", "arrival_window_s": 0}`))
	f.Add([]byte(`{"arrival": "sometimes"}`))
	f.Add([]byte(`{"viewers": -1}`))
	f.Add([]byte(`{"cell": {"capacity_mbps": 0}}`))
	f.Add([]byte(`{"cell": {"capacity_mbps": 10, "per_viewer_mbps": -1, "sectors": -2}}`))
	f.Add([]byte(`{"rollup_s": -5, "shards": -1}`))
	f.Add([]byte(`{"arrival_window_s": 1e308, "rollup_s": 1e308}`))
	f.Add([]byte(`{"base": {"governor": "nosuch"}}`))
	f.Add([]byte(`{"viewers": 1.5}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeCohortRequest(bytes.NewReader(body))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
			return
		}
		cfg, err := req.Config()
		if err != nil {
			if !errors.Is(err, experiments.ErrInvalidConfig) {
				t.Fatalf("Config error %v does not wrap ErrInvalidConfig", err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Config() returned a cohort config Validate rejects: %v", err)
		}
	})
}

// FuzzDecodeCohortPartRequest holds /v1/cohort/part's untrusted-input
// path to the same contract: a typed decode error, a typed config error,
// or a cohort config Validate accepts, with a stable content-addressed
// key and a shard set whose cache-key suffix is canonical (any spelling
// of the same set shares one cached part).
func FuzzDecodeCohortPartRequest(f *testing.F) {
	f.Add([]byte(`{"cohort": {}, "shards": [0]}`))
	f.Add([]byte(`{"cohort": {"base": {"duration_s": 6}, "viewers": 12, "shards": 4, "rollup_s": 5, "seed": 9}, "shards": [3, 1]}`))
	f.Add([]byte(`{"cohort": {"viewers": 48, "cell": {"capacity_mbps": 40, "sectors": 4}}, "shards": [2, 0, 2]}`))
	f.Add([]byte(`{"cohort": {"viewers": 4}, "shards": [-1, 9223372036854775807]}`))
	f.Add([]byte(`{"cohort": {"viewers": -1}, "shards": [0]}`))
	f.Add([]byte(`{"cohort": {"base": {"net": "5g"}}, "shards": []}`))
	f.Add([]byte(`{"shards": [0], "viewers": 5}`))
	f.Add([]byte(`{"cohort": {}, "shards": [0.5]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeCohortPartRequest(bytes.NewReader(body))
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error %v does not wrap ErrBadRequest", err)
			}
			return
		}
		cfg, err := req.Config()
		if err != nil {
			if !errors.Is(err, experiments.ErrInvalidConfig) {
				t.Fatalf("Config error %v does not wrap ErrInvalidConfig", err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Config() returned a cohort config Validate rejects: %v", err)
		}
		if n := cohort.ShardCount(cfg); n < 1 || n > cfg.Viewers {
			t.Fatalf("ShardCount = %d for %d viewers", n, cfg.Viewers)
		}
		if k, ok := cohort.Key(cfg); !ok || len(k) != 64 {
			t.Fatalf("decoded cohort key %q (cacheable %v)", k, ok)
		}
		set := shardSetKey(req.Shards)
		rev := make([]int, len(req.Shards))
		for i, idx := range req.Shards {
			rev[len(rev)-1-i] = idx
		}
		if again := shardSetKey(append(rev, rev...)); again != set {
			t.Fatalf("shard-set key not canonical: %q vs %q for %v", set, again, req.Shards)
		}
	})
}
