package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"videodvfs/internal/experiments"
	"videodvfs/internal/server"
)

// handleSweep shards one sweep across the fleet: the request expands to
// wire-level points in exactly dvfsd's expansion order, each point
// routes to the worker owning its ConfigKey on the ring (keeping the
// workers' caches hot and disjoint), and the outcomes merge back in
// expansion order — the same response a single dvfsd would build, in
// dvfsd's own server.SweepBody (each point's run body is the worker's raw
// bytes, the same content-addressed marshal a single node serves).
func (c *Controller) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, ok := decodePost(c, w, r, "sweep", server.DecodeSweepRequest)
	if !ok {
		return
	}
	if size := req.Size(); size > int64(c.cfg.MaxSweepRuns) {
		server.WriteError(w, http.StatusBadRequest, server.CodeInvalidConfig,
			fmt.Sprintf("fleet: sweep expands to %d runs, cap is %d", size, c.cfg.MaxSweepRuns))
		return
	}
	// Configs both validates every point and yields the content-addressed
	// routing keys, in the exact expansion order the wire points use.
	cfgs, err := req.Configs()
	if err != nil {
		server.WriteRequestError(w, err)
		return
	}
	for _, s := range req.Seeds {
		if s == 0 {
			// The per-run wire form cannot express seed 0 (zero means
			// "default"), so a fleet-dispatched point would silently run a
			// different seed than a single node. Reject rather than diverge.
			server.WriteError(w, http.StatusBadRequest, server.CodeInvalidConfig,
				"fleet: explicit seed 0 is not expressible in dispatched runs")
			return
		}
	}
	query, err := passthroughQuery(r)
	if err != nil {
		server.WriteRequestError(w, err)
		return
	}
	points := expandSweepWire(req)
	if len(points) != len(cfgs) { // defensive: the two expansions must mirror
		server.WriteError(w, http.StatusInternalServerError, server.CodeInternal,
			fmt.Sprintf("fleet: wire expansion yielded %d points for %d configs", len(points), len(cfgs)))
		return
	}

	outcomes := make([]server.SweepOutcome, len(points))
	resps := make([]wresp, len(points))
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	for i := range points {
		body, merr := json.Marshal(points[i])
		if merr != nil {
			errs[i] = merr
			continue
		}
		key, _ := experiments.ConfigKey(cfgs[i])
		wg.Add(1)
		go func(i int, key string, body []byte) {
			defer wg.Done()
			resps[i], errs[i] = c.dispatch(r.Context(), key, "/v1/run", query, body)
		}(i, key, body)
	}
	wg.Wait()

	failed, overloaded := 0, 0
	maxRetryAfter := 1
	for i := range points {
		switch {
		case errs[i] != nil:
			outcomes[i] = server.SweepOutcome{Index: i, Error: errs[i].Error()}
			failed++
		case resps[i].status == http.StatusOK:
			outcomes[i] = server.SweepOutcome{Index: i, Run: resps[i].body}
		default:
			msg := resps[i].message
			if msg == "" {
				msg = fmt.Sprintf("worker status %d", resps[i].status)
			}
			outcomes[i] = server.SweepOutcome{Index: i, Error: msg}
			failed++
			if resps[i].status == http.StatusTooManyRequests {
				overloaded++
				if resps[i].retryAfter > maxRetryAfter {
					maxRetryAfter = resps[i].retryAfter
				}
			}
		}
	}
	// A sweep the fleet could not place at all is backpressure, not a
	// result: pass the 429 through with the workers' largest hint
	// (clamped ≥ 1 like dvfsd's own Retry-After).
	if failed == len(points) && overloaded == failed && failed > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", maxRetryAfter))
		server.WriteError(w, http.StatusTooManyRequests, server.CodeOverloaded,
			"fleet: every worker is overloaded; retry after the hint")
		return
	}
	server.WriteJSON(w, http.StatusOK, server.SweepBody{Count: len(outcomes), Outcomes: outcomes})
}

// passthroughQuery validates and forwards the query parameters dvfsd's
// /v1/run understands from a sweep (?strict); unknown parameters are a
// client error rather than a silent drop.
func passthroughQuery(r *http.Request) (string, error) {
	for k := range r.URL.Query() {
		if k != "strict" {
			return "", fmt.Errorf("fleet: %w: unknown query parameter %q", server.ErrBadRequest, k)
		}
	}
	strict, err := server.BoolParam(r, "strict")
	if err != nil || !strict {
		return "", err
	}
	return "?strict=1", nil
}

// expandSweepWire expands a sweep request into per-point run requests in
// exactly experiments.Sweep.Expand's order (governor-major, seed-minor):
// the cross product of the axes in declaration order, axes left empty
// pinned to the base value. Point i here resolves to the same RunConfig
// as Configs()[i], so the ConfigKey list indexes both expansions.
func expandSweepWire(req server.SweepRequest) []server.RunRequest {
	govs := axisOr(req.Governors, req.Base.Governor)
	nets := axisOr(req.Nets, req.Base.Net)
	devs := axisOr(req.Devices, req.Base.Device)
	titles := axisOr(req.Titles, req.Base.Title)
	rungs := axisOr(req.Rungs, req.Base.Rung)
	seeds := req.Seeds
	if req.SeedRange != nil {
		seeds = experiments.SeedRange(req.SeedRange[0], req.SeedRange[1])
	}
	if len(seeds) == 0 {
		seeds = []int64{req.Base.Seed}
	}
	out := make([]server.RunRequest, 0, len(govs)*len(nets)*len(devs)*len(titles)*len(rungs)*len(seeds))
	for _, gov := range govs {
		for _, net := range nets {
			for _, dev := range devs {
				for _, title := range titles {
					for _, rung := range rungs {
						for _, seed := range seeds {
							rr := req.Base
							rr.Governor = gov
							rr.Net = net
							rr.Device = dev
							rr.Title = title
							rr.Rung = rung
							rr.Seed = seed
							out = append(out, rr)
						}
					}
				}
			}
		}
	}
	return out
}

// axisOr returns the axis values, or the base value alone when the axis
// is empty (possibly "", meaning the catalog default — the same
// semantics the worker applies).
func axisOr(axis []string, base string) []string {
	if len(axis) == 0 {
		return []string{base}
	}
	return axis
}
