package fleet

import (
	"fmt"
	"net/http"
	"strings"
)

// handleMetrics renders the fleet rollup in the same Prometheus-style
// text format as dvfsd's /metrics (the request ledger is dvfsd's own
// server.RequestCounters): controller counters first, then one gauge set
// per worker labeled by its URL.
func (c *Controller) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	c.requests.Render(&b, "dvfsctl")

	fmt.Fprintf(&b, "dvfsctl_workers %d\n", len(c.workers))
	fmt.Fprintf(&b, "dvfsctl_workers_alive %d\n", c.aliveCount())
	fmt.Fprintf(&b, "dvfsctl_ejections_total %d\n", c.ejected.Load())

	for _, wk := range c.workers {
		up := 0
		if wk.alive.Load() {
			up = 1
		}
		fmt.Fprintf(&b, "dvfsctl_worker_up{worker=%q} %d\n", wk.url, up)
		fmt.Fprintf(&b, "dvfsctl_worker_queue_depth{worker=%q} %d\n", wk.url, wk.queueDepth.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_dispatches_total{worker=%q} %d\n", wk.url, wk.dispatches.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_retries_total{worker=%q} %d\n", wk.url, wk.retries.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_failures_total{worker=%q} %d\n", wk.url, wk.failures.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_ejections_total{worker=%q} %d\n", wk.url, wk.ejections.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_cache_hits_total{worker=%q} %d\n", wk.url, wk.hits.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_cache_misses_total{worker=%q} %d\n", wk.url, wk.misses.Load())
		fmt.Fprintf(&b, "dvfsctl_worker_cache_hit_ratio{worker=%q} %g\n", wk.url, wk.hitRatio())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(b.String()))
}
