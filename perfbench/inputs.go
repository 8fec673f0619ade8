package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"videodvfs/internal/experiments"
	"videodvfs/internal/netsim"
	"videodvfs/internal/server"
	"videodvfs/internal/sim"
	"videodvfs/internal/stats"
	"videodvfs/internal/video"
)

// derive splits the run seed into a positive seed for one named input
// family, so every generated input is a pure function of --seed.
func derive(seed int64, name string, n int) int64 {
	return 1 + int64(uint64(sim.ChildSeedN(seed, name, n))%(1<<31))
}

// requestBody is the /v1/run wire form of one session. Every workload
// generates its inputs as such bodies and decodes them with the server's
// decoder, so the program only ever sees generated wire inputs.
func requestBody(gov experiments.GovernorID, net experiments.NetKind, abr experiments.ABRID, durS float64, seed int64) []byte {
	req := server.RunRequest{Governor: string(gov), Net: string(net), ABR: string(abr), DurationS: durS, Seed: seed}
	if abr == experiments.ABRFixed {
		req.Rung = "720p"
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a RunRequest of plain fields always marshals
	}
	return b
}

func decodeConfig(body []byte) (experiments.RunConfig, error) {
	req, err := server.DecodeRunRequest(bytes.NewReader(body))
	if err != nil {
		return experiments.RunConfig{}, fmt.Errorf("decode %s: %w", body, err)
	}
	return req.Config()
}

// reference computes the expected result of cfg on a fresh session.
func reference(cfg experiments.RunConfig) (experiments.RunResult, error) {
	var res experiments.RunResult
	err := experiments.NewSession().RunInto(cfg, &res)
	return res, err
}

// repeatFor calls fn over items until at least min has elapsed and every
// item ran once, and returns the mean time per call.
func repeatFor(n int, min time.Duration, fn func(i int)) time.Duration {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	calls := 0
	for calls < n || time.Since(t0) < min {
		fn(calls % n)
		calls++
	}
	return time.Since(t0) / time.Duration(calls)
}

// probeLayers times, on the workload's own inputs, the layers every
// workload reaches outside its measured loop: request decoding, config
// keys, result encoding, stream and trace generation on fresh seeds, and
// quantile-sketch folding of the workload's per-viewer energies.
func probeLayers(rep *report, log *spanLog, seed int64, bodies [][]byte, results []experiments.RunResult, samples []float64) error {
	_, end := log.begin("probe.layers", 0, 0)
	defer end()
	cfgs := make([]experiments.RunConfig, len(bodies))
	var decodeErr error
	d := repeatFor(len(bodies), 50*time.Millisecond, func(i int) {
		cfg, err := decodeConfig(bodies[i])
		if err != nil {
			decodeErr = err
		}
		cfgs[i] = cfg
	})
	if decodeErr != nil {
		return decodeErr
	}
	rep.setLayer("server.decode_us", us(d))
	rep.setLayer("experiments.config_key_us", us(repeatFor(len(cfgs), 50*time.Millisecond, func(i int) {
		experiments.ConfigKey(cfgs[i])
	})))
	var bodyBytes, encoded int
	var encodeErr error
	rep.setLayer("server.encode_us", us(repeatFor(len(results), 50*time.Millisecond, func(i int) {
		b, err := json.Marshal(results[i])
		if err != nil {
			encodeErr = err
		}
		bodyBytes += len(b)
		encoded++
	})))
	if encodeErr != nil {
		return encodeErr
	}
	if encoded > 0 {
		rep.setLayer("server.body_kb", float64(bodyBytes)/float64(encoded)/1024)
	}

	// One stream set and one Markov trace per distinct input shape, each
	// on a seed no run has used, so nothing comes from a cache.
	type shape struct {
		ladder bool
		title  video.Title
		rung   video.Resolution
		dur    sim.Time
	}
	seen := map[shape]bool{}
	var gen []shape
	var nets []experiments.RunConfig
	seenNet := map[experiments.NetKind]bool{}
	for _, c := range cfgs {
		s := shape{ladder: c.ABR != experiments.ABRFixed, title: c.Title, dur: c.Duration}
		if !s.ladder {
			s.rung = c.Rung
		}
		if !seen[s] {
			seen[s] = true
			gen = append(gen, s)
		}
		if (c.Net == experiments.NetLTE || c.Net == experiments.NetUMTS) && !seenNet[c.Net] {
			seenNet[c.Net] = true
			nets = append(nets, c)
		}
	}
	var genErr error
	fresh := 0
	rep.setLayer("video.generate_us", us(repeatFor(len(gen), 50*time.Millisecond, func(i int) {
		s := gen[i]
		fresh++
		var err error
		if s.ladder {
			_, err = video.GenerateLadder(s.title, 30, video.DefaultLadder(), s.dur, derive(seed, "probe/video", fresh))
		} else {
			_, err = video.Generate(video.DefaultSpec(s.title, s.rung), s.dur, derive(seed, "probe/video", fresh))
		}
		if err != nil {
			genErr = err
		}
	})))
	rep.setLayer("netsim.gen_trace_us", us(repeatFor(len(nets), 50*time.Millisecond, func(i int) {
		c := nets[i]
		states := netsim.LTEStates()
		if c.Net == experiments.NetUMTS {
			states = netsim.UMTSStates()
		}
		fresh++
		_, err := netsim.GenMarkovTrace(states, c.Duration*4, sim.Stream(derive(seed, "probe/bw", fresh), "bw"))
		if err != nil {
			genErr = err
		}
	})))
	if genErr != nil {
		return genErr
	}

	if len(samples) > 0 {
		perFold := repeatFor(1, 20*time.Millisecond, func(int) {
			sk := stats.NewSketch(0.01)
			for _, x := range samples {
				sk.Add(x)
			}
		})
		rep.setLayer("stats.sketch_add_ns", float64(perFold)/float64(len(samples)))
		// Fold quarters into one sketch, as a cohort merges its shards.
		parts := make([]*stats.Sketch, 4)
		for p := range parts {
			parts[p] = stats.NewSketch(0.01)
		}
		for i, x := range samples {
			parts[i%4].Add(x)
		}
		var mergeErr error
		rep.setLayer("stats.sketch_merge_us", us(repeatFor(1, 20*time.Millisecond, func(int) {
			dst := stats.NewSketch(0.01)
			for _, p := range parts {
				if err := dst.Merge(p); err != nil {
					mergeErr = err
				}
			}
		})))
		if mergeErr != nil {
			return mergeErr
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
