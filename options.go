package videodvfs

// Option mutates a RunConfig under construction; see NewSession.
type Option func(*RunConfig)

// NewSession builds a RunConfig from DefaultSession plus the given
// options, applied in order:
//
//	cfg := videodvfs.NewSession(
//		videodvfs.WithGovernor(videodvfs.GovOndemand),
//		videodvfs.WithNet(videodvfs.NetLTE),
//		videodvfs.WithSeed(7),
//	)
//
// The result is a plain RunConfig: fields without options can still be
// set directly before passing it to Run.
func NewSession(opts ...Option) RunConfig {
	cfg := DefaultSession()
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithDevice selects the CPU model.
func WithDevice(d Device) Option { return func(c *RunConfig) { c.Device = d } }

// WithGovernor selects the frequency policy.
func WithGovernor(g Governor) Option { return func(c *RunConfig) { c.Governor = g } }

// WithPolicy tunes the energy-aware governor.
func WithPolicy(p PolicyConfig) Option { return func(c *RunConfig) { c.Policy = p } }

// WithTitle selects the content profile.
func WithTitle(t Title) Option { return func(c *RunConfig) { c.Title = t } }

// WithRung pins a single rendition (with ABRFixed).
func WithRung(r Resolution) Option { return func(c *RunConfig) { c.Rung = r } }

// WithABR selects the adaptation algorithm.
func WithABR(a ABR) Option { return func(c *RunConfig) { c.ABR = a } }

// WithNet selects the bandwidth profile.
func WithNet(n NetKind) Option { return func(c *RunConfig) { c.Net = n } }

// WithDuration sets the content length.
func WithDuration(d Time) Option { return func(c *RunConfig) { c.Duration = d } }

// WithSeed sets the seed driving all stochastic inputs.
func WithSeed(seed int64) Option { return func(c *RunConfig) { c.Seed = seed } }

// WithTracer attaches a structured tracer to the run; see NewJSONLTracer
// and NewTraceCollector.
func WithTracer(tr Tracer) Option { return func(c *RunConfig) { c.Tracer = tr } }

// WithCodec selects the decode model by name ("h264", "hevc").
func WithCodec(name string) Option { return func(c *RunConfig) { c.Codec = name } }

// WithCStates enables the cpuidle model.
func WithCStates() Option { return func(c *RunConfig) { c.CStates = true } }

// WithLowLatency switches the player to live-streaming thresholds.
func WithLowLatency() Option { return func(c *RunConfig) { c.LowLatency = true } }

// WithBackground toggles the UI/OS background load generator.
func WithBackground(on bool) Option { return func(c *RunConfig) { c.Background = on } }

// WithLowWater enables the player's burst-prefetch hysteresis: fetches
// pause above the high-water buffer mark and resume in a burst below
// this low-water mark, letting the radio sleep between bursts.
func WithLowWater(sec float64) Option { return func(c *RunConfig) { c.LowWaterSec = sec } }

// WithForecast arms the predictive download scheduler with the given
// bandwidth-forecast kind (ForecastOracle, ForecastNoisy). Requires
// WithLowWater; ForecastNone keeps the reactive trigger.
func WithForecast(k ForecastKind) Option { return func(c *RunConfig) { c.Forecast = k } }

// WithForecastLookahead sets the forecast's lookahead window (0 = the
// library default).
func WithForecastLookahead(h Time) Option { return func(c *RunConfig) { c.ForecastLookahead = h } }

// WithForecastError sets the noisy forecast's relative error (noisy
// kind only).
func WithForecastError(rel float64) Option { return func(c *RunConfig) { c.ForecastRelErr = rel } }

// WithForecastSeed perturbs the noisy forecast's error draw
// independently of the run seed.
func WithForecastSeed(seed int64) Option { return func(c *RunConfig) { c.ForecastSeed = seed } }

// WithFrameTrace replays an exact frame stream instead of generating one.
func WithFrameTrace(s *Stream) Option { return func(c *RunConfig) { c.Trace = s } }

// WithHorizon caps the run's virtual time; a session still incomplete at
// the cap makes Run fail with ErrHorizonExceeded. dvfsd uses the same
// mechanism as its per-request timeout.
func WithHorizon(h Time) Option { return func(c *RunConfig) { c.Horizon = h } }

// WithCancel makes the run abandonable: the simulator polls ch every
// 100 virtual milliseconds and, once ch is closed, stops and fails with
// ErrCanceled. Virtual time only advances while the simulation computes,
// so an abandoned run observes the closure within one event batch of
// wall time. dvfsd wires the request context's Done channel here so a
// disconnected streaming client stops burning a pool worker. Cancelable
// runs are never cache-served.
func WithCancel(ch <-chan struct{}) Option { return func(c *RunConfig) { c.Cancel = ch } }

// WithInvariants arms the run-time invariant checker: the event stream is
// audited against the simulator's conservation laws (energy closure,
// residency closure, frame accounting, event-time monotonicity — see
// DESIGN.md §10) and any breach fails Run with a *Violation error,
// unwrappable via errors.As. Strict runs pay the tracing cost and are
// never served from the dvfsd result cache.
func WithInvariants() Option { return func(c *RunConfig) { c.Strict = true } }
