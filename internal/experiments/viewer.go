package experiments

import (
	"fmt"

	"videodvfs/internal/abr"
	"videodvfs/internal/core"
	"videodvfs/internal/cpu"
	"videodvfs/internal/energy"
	"videodvfs/internal/governor"
	"videodvfs/internal/invariant"
	"videodvfs/internal/netsim"
	"videodvfs/internal/player"
	"videodvfs/internal/sim"
	"videodvfs/internal/trace"
	"videodvfs/internal/video"
)

// ViewerOptions customizes how a cohort viewer plugs into shared cohort
// state. All fields are optional; the zero value wires a viewer exactly
// like a standalone Run.
type ViewerOptions struct {
	// WrapBandwidth, if set, decorates the viewer's resolved bandwidth
	// model before the downloader sees it. The cohort's cell-congestion
	// model wraps the shared base trace here, so contention stacks on
	// top of whatever profile the config selects.
	WrapBandwidth func(netsim.Bandwidth) netsim.Bandwidth
	// OnNetActivity, if set, observes the viewer's download busy/idle
	// transitions — the signal the shared cell counts active flows
	// from. It rides the player's hook chain because the downloader's
	// own OnActive slot is single-listener and the player owns it.
	OnNetActivity func(now sim.Time, active bool)
	// OnDone fires inside the viewer's completion (or horizon-cut)
	// event, after the viewer has stopped its background load. The
	// cohort shard collects the result here, while the engine clock
	// still reads the viewer's own end time.
	OnDone func()
}

// Viewer is one simulated device — meter, CPU core, governor, radio,
// downloader, player, background load, optional thermal model — wired
// into a virtual-time engine it does not own and never stops. Reset is
// the only code that builds or rewinds that device: a Session owns one
// Viewer on a private engine for single runs, and a cohort shard builds
// many over one shared engine (one event slab, one clock, shared
// immutable stream/bandwidth tables via the package caches, per-viewer
// everything else).
//
// Reset constructs each component on first use and rewinds it in place
// afterwards, in one fixed order with the same RNG derivations. A
// recycled viewer therefore replays a fresh one's event sequence exactly,
// and a single cohort viewer started at t=0 replays a standalone Run —
// the N=1 cohort ≡ Run test compares results with DeepEqual, not
// tolerances.
type Viewer struct {
	cfg  RunConfig // defaults applied
	opts ViewerOptions
	eng  *sim.Engine

	// Components: built by the first Reset, rewound by every later one.
	meter *energy.Meter
	core  *cpu.Core
	radio *netsim.Radio
	dl    *netsim.Downloader
	ps    *player.Session
	ea    *core.Governor // the energy-aware governor, recycled when selected
	bg    *cpu.LoadGen
	bgRNG *sim.RNG

	// Pre-bound untraced power listeners and completion callback:
	// constructed once so a reset re-registers closures without
	// allocating them.
	cpuPowerFn   func(now sim.Time, watts float64)
	radioPowerFn func(now sim.Time, watts float64)
	doneFn       func()

	// traceFor, when set, resolves the run's tracer around its invariant
	// checker: an owning Session tees cfg.Tracer behind the checker and
	// batches the result. When nil (a cohort viewer), the checker is teed
	// with cfg.Tracer directly.
	traceFor func(cfg RunConfig, chk *invariant.Checker) trace.Tracer

	// Per-run wiring, established by Reset.
	gov      governor.Governor
	eaGov    *core.Governor
	thermal  *cpu.Thermal
	chk      *invariant.Checker
	bgActive bool
	horizon  sim.Time // relative to join
	join     sim.Time
	done     bool

	// Viewer-local memos for the package caches: sync.Map lookups box
	// their struct keys (an allocation per call), so same-config resets
	// short-circuit here.
	lastBWNet   NetKind
	lastBWDur   sim.Time
	lastBWSeed  int64
	lastBW      netsim.Bandwidth
	lastRRC     netsim.RRCConfig
	lastRendKey streamKey
	lastRends   []*video.Stream
	traceRends  []*video.Stream
}

// activityHooks decorates SessionHooks with a second download-activity
// listener: the player consumes the downloader's single OnActive slot,
// so shared-cell flow counting rides the hook chain instead. The cell's
// listener runs first; the inner hooks (the video-aware governor) see
// the identical call they would without the wrapper.
type activityHooks struct {
	player.SessionHooks
	fn func(now sim.Time, active bool)
}

// DownloadActivity implements player.SessionHooks.
func (h activityHooks) DownloadActivity(now sim.Time, active bool) {
	h.fn(now, active)
	h.SessionHooks.DownloadActivity(now, active)
}

// NewViewer builds a viewer over the shared engine through Reset. Per-viewer
// OnSample and Tracer are rejected: a shared engine multiplexes thousands
// of sessions, and per-viewer callbacks are exactly the O(viewers) output
// the cohort design replaces with online aggregation.
func NewViewer(eng *sim.Engine, cfg RunConfig, opts ViewerOptions) (*Viewer, error) {
	if cfg.OnSample != nil || cfg.Tracer != nil {
		return nil, fmt.Errorf("experiments: %w: per-viewer OnSample/Tracer not supported in a cohort (aggregate via rollups)",
			ErrInvalidConfig)
	}
	v := &Viewer{eng: eng}
	if err := v.Reset(cfg, opts); err != nil {
		return nil, err
	}
	return v, nil
}

// Reset wires the viewer for cfg on its engine, validating cfg the way Run
// does and applying its defaults. Each component is rewound in place when
// a previous Reset built it and constructed otherwise, always in the same
// order: meter, core, C-states, governor, bandwidth, radio, downloader,
// thermal model, background load, renditions, player. OnSample and Cancel
// belong to an owning Session and are not read here.
//
// Reset does not clear the engine; events of a previous run on it must be
// gone already (a Session resets its private engine first). On error,
// whatever was attached to the engine — governor ticker, thermal sampler —
// is detached again, so a half-built viewer leaves a shared engine as it
// found it.
func (v *Viewer) Reset(cfg RunConfig, opts ViewerOptions) (err error) {
	if cfg.Trace != nil && cfg.Duration <= 0 {
		cfg.Duration = cfg.Trace.Duration()
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Device.Name == "" {
		cfg.Device = cpu.DeviceFlagship()
	}
	if cfg.Title.Name == "" {
		cfg.Title = video.TitleSports
	}
	if cfg.Rung.Name == "" {
		cfg.Rung = video.R720p
	}
	v.teardown()
	defer func() {
		if err != nil {
			v.teardown()
		}
	}()
	v.cfg, v.opts = cfg, opts
	v.eaGov, v.bgActive, v.join, v.done = nil, false, 0, false

	v.chk = buildChecker(cfg)
	var tr trace.Tracer
	if v.traceFor != nil {
		tr = v.traceFor(cfg, v.chk)
	} else {
		tr = teeChecker(v.chk, cfg.Tracer)
	}

	if v.meter == nil {
		v.meter = energy.NewMeter(v.eng)
		v.cpuPowerFn = v.meter.Listener(energy.ComponentCPU)
		v.radioPowerFn = v.meter.Listener(energy.ComponentRadio)
		v.doneFn = v.handleDone
	} else {
		v.meter.Reset()
	}

	if v.core == nil {
		if v.core, err = cpu.NewCore(v.eng, cfg.Device); err != nil {
			return err
		}
	} else if err := v.core.Reset(cfg.Device); err != nil {
		return err
	}
	if cfg.CStates {
		if err := v.core.EnableCStates(cpu.DefaultCStates()); err != nil {
			return err
		}
	}
	if tr != nil {
		v.core.SetTracer(tr)
		v.core.OnPower(tracedListener(v.meter, energy.ComponentCPU, tr))
	} else {
		v.core.OnPower(v.cpuPowerFn)
	}

	gov, hooks, eaGov, err := v.governorFor(cfg, tr)
	if err != nil {
		return err
	}
	if err := gov.Attach(v.eng, v.core); err != nil {
		return err
	}
	v.gov, v.eaGov = gov, eaGov

	bw, rrcCfg, err := v.bandwidthFor(cfg)
	if err != nil {
		return err
	}
	if opts.WrapBandwidth != nil {
		bw = opts.WrapBandwidth(bw)
	}
	if v.radio == nil {
		if v.radio, err = netsim.NewRadio(v.eng, rrcCfg); err != nil {
			return err
		}
	} else if err := v.radio.Reset(rrcCfg); err != nil {
		return err
	}
	if tr != nil {
		v.radio.SetTracer(tr)
		v.radio.OnPower(tracedListener(v.meter, energy.ComponentRadio, tr))
	} else {
		v.radio.OnPower(v.radioPowerFn)
	}

	if v.dl == nil {
		if v.dl, err = netsim.NewDownloader(v.eng, bw, v.radio, v.core, netsim.DefaultDownloaderConfig()); err != nil {
			return err
		}
	} else if err := v.dl.Reset(bw, netsim.DefaultDownloaderConfig()); err != nil {
		return err
	}

	if cfg.Thermal != nil {
		if v.thermal, err = cpu.StartThermal(v.eng, v.core, *cfg.Thermal); err != nil {
			return err
		}
	}

	if cfg.Background {
		bgSeed := cfg.Seed
		if cfg.BGSeed != 0 {
			bgSeed = cfg.BGSeed
		}
		if v.bg == nil {
			v.bgRNG = sim.Stream(bgSeed, "bgload")
			if v.bg, err = cpu.StartLoadGen(v.eng, v.core, v.bgRNG, cpu.DefaultLoadGenConfig()); err != nil {
				return err
			}
		} else {
			// Reseeding reproduces the exact stream a fresh
			// sim.Stream(seed, "bgload") would draw.
			v.bgRNG.Reseed(sim.ChildSeed(bgSeed, "bgload"))
			if err := v.bg.Restart(cpu.DefaultLoadGenConfig()); err != nil {
				return err
			}
		}
		v.bgActive = true
	}

	renditions, algo, err := v.renditionsFor(cfg)
	if err != nil {
		return err
	}

	pcfg := player.DefaultConfig()
	if cfg.SegmentDur > 0 {
		pcfg.SegmentDur = cfg.SegmentDur
	}
	pcfg.ABR = algo
	pcfg.Hooks = hooks
	if opts.OnNetActivity != nil {
		inner := hooks
		if inner == nil {
			inner = player.NopSessionHooks{}
		}
		pcfg.Hooks = activityHooks{SessionHooks: inner, fn: opts.OnNetActivity}
	}
	pcfg.Meter = v.meter
	pcfg.Tracer = tr
	if cfg.LowLatency {
		pcfg.StartupSec = 1
		pcfg.ResumeSec = 0.5
		pcfg.MaxBufferSec = 4
		pcfg.DecodedQueueCap = 3
	}
	if cfg.DecodedQueueCap > 0 {
		pcfg.DecodedQueueCap = cfg.DecodedQueueCap
	}
	pcfg.LowWaterSec = cfg.LowWaterSec
	// The forecast observes the wrapped bandwidth — the cell-congested
	// view this viewer's downloader actually integrates — so cohort
	// oracles predict contended rates, not the pristine sector input.
	fc, err := buildForecast(cfg, bw)
	if err != nil {
		return err
	}
	pcfg.Forecast = fc
	if v.ps == nil {
		if v.ps, err = player.NewSession(v.eng, v.core, v.dl, renditions, pcfg); err != nil {
			return err
		}
	} else if err := v.ps.Reset(renditions, pcfg); err != nil {
		return err
	}
	v.ps.OnDone(v.doneFn)

	v.horizon = DefaultHorizon(cfg.Duration)
	if cfg.Horizon > 0 {
		v.horizon = cfg.Horizon
	}
	return nil
}

// teeChecker puts the invariant checker first in front of tr; it only
// observes, so every downstream tracer sees the identical stream. Either
// may be nil.
func teeChecker(chk *invariant.Checker, tr trace.Tracer) trace.Tracer {
	switch {
	case chk == nil:
		return tr
	case tr == nil:
		return chk
	default:
		return trace.Tee{chk, tr}
	}
}

// governorFor resolves the run's governor plus, when video-aware, its
// session hooks; a non-nil tracer is attached to the video-aware
// policies. The viewer's energy-aware instance is recycled (predictor
// state and decision tables rewound in place); the oracle and the stock
// baselines are constructed fresh — they are allocation-light and keep
// per-run sampling state.
func (v *Viewer) governorFor(cfg RunConfig, tr trace.Tracer) (governor.Governor, player.SessionHooks, *core.Governor, error) {
	switch cfg.Governor {
	case GovEnergyAware:
		pol := cfg.Policy
		if pol == (core.Config{}) {
			pol = core.DefaultConfig()
		}
		if v.ea == nil {
			g, err := core.New(pol)
			if err != nil {
				return nil, nil, nil, err
			}
			v.ea = g
		} else if err := v.ea.Reset(pol); err != nil {
			return nil, nil, nil, err
		}
		if tr != nil {
			v.ea.SetTracer(tr)
		}
		return v.ea, v.ea, v.ea, nil
	case GovOracle:
		o := core.NewOracle()
		if tr != nil {
			o.SetTracer(tr)
		}
		return o, o, nil, nil
	default:
		g, err := governor.New(string(cfg.Governor))
		if err != nil {
			return nil, nil, nil, err
		}
		return g, nil, nil, nil
	}
}

// bandwidthFor resolves the run's bandwidth model and RRC profile through
// the viewer-local memo, falling back to the package caches. Trace-backed
// runs bypass the memo: its (net, duration, seed) key cannot tell two
// different recorded traces apart, and the trace is the caller's —
// nothing to generate or cache.
func (v *Viewer) bandwidthFor(cfg RunConfig) (netsim.Bandwidth, netsim.RRCConfig, error) {
	bw, rrc := v.lastBW, v.lastRRC
	if cfg.Net == NetTrace || bw == nil || cfg.Net != v.lastBWNet || cfg.Duration != v.lastBWDur || cfg.Seed != v.lastBWSeed {
		var err error
		if bw, rrc, err = buildBandwidth(cfg); err != nil {
			return nil, rrc, err
		}
		if cfg.Net != NetTrace {
			v.lastBWNet, v.lastBWDur, v.lastBWSeed = cfg.Net, cfg.Duration, cfg.Seed
			v.lastBW, v.lastRRC = bw, rrc
		}
	}
	if cfg.RRC != nil {
		rrc = *cfg.RRC
	}
	return bw, rrc, nil
}

// renditionsFor resolves the run's rendition set through the viewer-local
// memo (fixed-rung runs only; ladder runs keep a fresh stateful ABR
// instance and hit the package cache for their streams).
func (v *Viewer) renditionsFor(cfg RunConfig) ([]*video.Stream, abr.Algorithm, error) {
	if cfg.Trace != nil {
		if len(cfg.Trace.Frames) == 0 {
			return nil, nil, fmt.Errorf("experiments: empty frame trace")
		}
		if v.traceRends == nil {
			v.traceRends = make([]*video.Stream, 1)
		}
		v.traceRends[0] = cfg.Trace
		return v.traceRends, abrFixed0, nil
	}
	switch cfg.ABR {
	case "", ABRFixed:
		fps := cfg.FPS
		if fps == 0 {
			fps = 30
		}
		key := streamKey{
			title: cfg.Title,
			rung:  cfg.Rung,
			codec: cfg.Codec,
			fps:   fps,
			dur:   cfg.Duration,
			seed:  cfg.Seed,
		}
		if v.lastRends != nil && key == v.lastRendKey {
			return v.lastRends, abrFixed0, nil
		}
		streams, algo, err := buildRenditions(cfg)
		if err != nil {
			return nil, nil, err
		}
		v.lastRendKey, v.lastRends = key, streams
		return streams, algo, nil
	default:
		return buildRenditions(cfg)
	}
}

// Start begins the viewer's playback at the engine's current time — its
// join time. The cohort calls it directly for t=0 joins (preserving the
// exact pre-run scheduling order of a standalone Run) and from arrival
// events for later ones.
func (v *Viewer) Start() {
	v.join = v.eng.Now()
	v.ps.Start()
}

// Done reports whether the viewer finished (completed, failed, or was
// cut at its horizon).
func (v *Viewer) Done() bool { return v.done }

// Deadline returns the absolute virtual time of the viewer's horizon
// cap; valid after Start.
func (v *Viewer) Deadline() sim.Time { return v.join + v.horizon }

// handleDone runs inside the player's completion event (or, through Cut,
// the horizon-cut event): stop the background load at the viewer's own
// end time, then hand off to OnDone — a cohort shard collects the result
// there, while the engine clock reads this viewer's end, WITHOUT stopping
// the shared engine; a Session stops its private engine there.
func (v *Viewer) handleDone() {
	if v.done {
		return
	}
	v.done = true
	if v.bgActive {
		v.bg.Stop()
	}
	if v.opts.OnDone != nil {
		v.opts.OnDone()
	}
}

// Cut force-finishes a viewer still streaming when its horizon hits —
// the shared-engine analogue of RunUntil returning at the horizon with
// the session incomplete. It reports false (and does nothing) when the
// viewer already finished; the cohort schedules a cut event per viewer
// unconditionally, so the common case is a no-op. A cut viewer's
// leftover player events drain harmlessly in the shared engine (they
// mirror the events a standalone Run leaves in the heap at its horizon);
// its Finish reports ErrHorizonExceeded, matching Run.
func (v *Viewer) Cut() bool {
	if v.done {
		return false
	}
	v.handleDone()
	return true
}

// Finish closes out a done viewer into res (reusing res's maps — the
// cohort passes one scratch RunResult per shard, never one per viewer).
// Call it from OnDone, while the engine clock still reads the viewer's
// end time. A done viewer that did not complete was cut, so it reports
// ErrHorizonExceeded.
func (v *Viewer) Finish(res *RunResult) error {
	if !v.done {
		return fmt.Errorf("experiments: viewer still streaming; Finish belongs in OnDone")
	}
	return v.finish(res, true)
}

// finish is the one close-out path of a run: energy accounting, the error
// and invariant checks in a fixed order, then collectResult into res. An
// incomplete session fails with ErrHorizonExceeded only when atHorizon —
// a Session passes whether its engine ran out to the horizon.
func (v *Viewer) finish(res *RunResult, atHorizon bool) error {
	defer v.teardown()
	v.meter.Finish()
	if err := v.ps.Err(); err != nil {
		return fmt.Errorf("experiments: session: %w", err)
	}
	if err := finalizeChecker(v); err != nil {
		return err
	}
	if m := v.ps.Metrics(); !m.Completed && atHorizon {
		return fmt.Errorf("experiments: %w: session at %d/%d frames when the %v horizon hit",
			ErrHorizonExceeded, m.DisplayedFrames+m.DroppedFrames, m.TotalFrames, v.horizon)
	}
	if v.dl.Err() != nil {
		return fmt.Errorf("experiments: downloader: %w", v.dl.Err())
	}
	if v.bgActive && v.bg.Err() != nil {
		return fmt.Errorf("experiments: background load: %w", v.bg.Err())
	}
	collectResult(v, res)
	return nil
}

// finalizeChecker closes out an armed invariant checker against the
// run's final ground truth; no checker is a no-op. Any violation is
// returned wrapped exactly as strict Run reports it.
func finalizeChecker(v *Viewer) error {
	if v.chk == nil {
		return nil
	}
	m := v.ps.Metrics()
	counts := v.ps.Decoder().Counts()
	rrcRes := make(map[string]sim.Time, 4)
	for state, d := range v.radio.Residency() {
		rrcRes[state.String()] = d
	}
	if viol := v.chk.Finalize(invariant.Final{
		End:           v.eng.Now(),
		CPUJ:          v.meter.ComponentJ(energy.ComponentCPU),
		RadioJ:        v.meter.ComponentJ(energy.ComponentRadio),
		DisplayJ:      v.meter.ComponentJ(energy.ComponentDisplay),
		FreqResidency: v.core.FreqResidency(),
		RRCResidency:  rrcRes,
		IdleResidency: v.core.IdleStateResidency(),
		Displayed:     m.DisplayedFrames,
		Dropped:       m.DroppedFrames,
		Total:         m.TotalFrames,
		Decoded:       counts.Decoded,
		Discarded:     counts.Discarded,
		ReadyLeft:     v.ps.Decoder().ReadyLen(),
		Completed:     m.Completed,
	}); viol != nil {
		return fmt.Errorf("experiments: strict: %w", viol)
	}
	return nil
}

// collectResult gathers a finished viewer's outcome into res, reusing
// res's maps and slices when present.
func collectResult(v *Viewer, res *RunResult) {
	res.Governor = v.gov.Name()
	res.CPUJ = v.meter.ComponentJ(energy.ComponentCPU)
	res.RadioJ = v.meter.ComponentJ(energy.ComponentRadio)
	res.DisplayJ = v.meter.ComponentJ(energy.ComponentDisplay)
	res.QoE = v.ps.Metrics()
	if res.FreqResidency == nil {
		res.FreqResidency = make(map[int]sim.Time, len(v.cfg.Device.OPPs))
	}
	v.core.FreqResidencyInto(res.FreqResidency)
	if res.RadioResidency == nil {
		res.RadioResidency = make(map[netsim.RRCState]sim.Time, 4)
	}
	v.radio.ResidencyInto(res.RadioResidency)
	res.RadioPromotions = v.radio.Promotions()
	res.Fetches = v.dl.Fetches()
	res.SimEnd = v.eng.Now()
	res.MeanFreqGHz = meanFreqGHz(v.cfg.Device, res.FreqResidency)
	if v.cfg.CStates {
		if res.IdleResidency == nil {
			res.IdleResidency = make(map[string]sim.Time, 4)
		}
		v.core.IdleStateResidencyInto(res.IdleResidency)
	} else {
		// A nil map, not an emptied one: it must compare equal to a fresh
		// run's result, which never allocates the map without C-states.
		res.IdleResidency = nil
	}
	res.OPPTransitions = v.core.Transitions()
	res.MaxTempC, res.ThrottleEvents, res.ThrottledS = 0, 0, 0
	if v.thermal != nil {
		res.MaxTempC = v.thermal.MaxTempC()
		res.ThrottleEvents = v.thermal.ThrottleEvents()
		res.ThrottledS = v.thermal.ThrottledTime().Seconds()
	}
	if v.eaGov != nil {
		// Copy the stats out: the governor's RelErr backing array is
		// recycled by the next Reset, so the result must own its slice.
		st := v.eaGov.PredStats()
		if res.Pred == nil {
			res.Pred = new(core.PredictionStats)
		}
		res.Pred.N = st.N
		res.Pred.Underestimates = st.Underestimates
		res.Pred.RelErr = append(res.Pred.RelErr[:0], st.RelErr...)
	} else {
		res.Pred = nil
	}
}

// teardown quiesces the viewer's recurring machinery in its engine —
// thermal sampler, governor ticker — and detaches the checker from the
// component tracers so post-finalize radio-tail events (which a Session's
// stopped engine never fires) cannot reach it. It is idempotent: Reset,
// Finish and a Session's error paths all call it.
func (v *Viewer) teardown() {
	if v.thermal != nil {
		v.thermal.Stop()
		v.thermal = nil
	}
	if v.gov != nil {
		v.gov.Detach()
		v.gov = nil
	}
	if v.chk != nil {
		if v.core != nil {
			v.core.SetTracer(nil)
		}
		if v.radio != nil {
			v.radio.SetTracer(nil)
		}
	}
}
