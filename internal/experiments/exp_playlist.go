package experiments

import (
	"fmt"

	"videodvfs/internal/abr"
	"videodvfs/internal/core"
	"videodvfs/internal/cpu"
	"videodvfs/internal/energy"
	"videodvfs/internal/governor"
	"videodvfs/internal/netsim"
	"videodvfs/internal/player"
	"videodvfs/internal/sim"
	"videodvfs/internal/video"
)

// PlaylistConfig describes a realistic usage session: the user watches
// several short videos back to back with think-time pauses (browsing the
// next video) between them. The pauses are where radio tail energy and
// fast dormancy matter most.
type PlaylistConfig struct {
	// Governor is the policy name ("energyaware" or a cpufreq name).
	Governor string
	// Videos is the number of clips.
	Videos int
	// VideoDur is each clip's length.
	VideoDur sim.Time
	// ThinkDur is the pause between clips.
	ThinkDur sim.Time
	// FastDormancy releases the radio immediately after each burst.
	FastDormancy bool
	// Seed drives all stochastic inputs.
	Seed int64
}

// Validate checks the configuration.
func (c PlaylistConfig) Validate() error {
	if c.Videos <= 0 {
		return fmt.Errorf("playlist: %d videos", c.Videos)
	}
	if c.VideoDur <= 0 || c.ThinkDur < 0 {
		return fmt.Errorf("playlist: video %v / think %v durations invalid", c.VideoDur, c.ThinkDur)
	}
	return nil
}

// PlaylistResult summarizes a usage session.
type PlaylistResult struct {
	// CPUJ, RadioJ, DisplayJ are per-component energies.
	CPUJ, RadioJ, DisplayJ float64
	// WallS is the whole session span including pauses.
	WallS float64
	// Drops and Rebuffers aggregate across clips.
	Drops, Rebuffers int
	// Completed counts clips that finished.
	Completed int
}

// TotalJ returns whole-device energy.
func (r PlaylistResult) TotalJ() float64 { return r.CPUJ + r.RadioJ + r.DisplayJ }

// MeanW returns the session's mean device power.
func (r PlaylistResult) MeanW() float64 {
	if r.WallS <= 0 {
		return 0
	}
	return r.TotalJ() / r.WallS
}

// RunPlaylist simulates the usage session on shared hardware: one CPU,
// one radio, one governor across all clips (so the demand predictor stays
// warm between videos, as it would on a device).
func RunPlaylist(cfg PlaylistConfig) (PlaylistResult, error) {
	if err := cfg.Validate(); err != nil {
		return PlaylistResult{}, err
	}
	eng := sim.NewEngine()
	meter := energy.NewMeter(eng)

	coreCPU, err := cpu.NewCore(eng, cpu.DeviceFlagship())
	if err != nil {
		return PlaylistResult{}, err
	}
	coreCPU.OnPower(meter.Listener(energy.ComponentCPU))

	var (
		gov   governor.Governor
		hooks player.SessionHooks
	)
	if cfg.Governor == "energyaware" {
		g, gerr := core.New(core.DefaultConfig())
		if gerr != nil {
			return PlaylistResult{}, gerr
		}
		gov, hooks = g, g
	} else {
		g, gerr := governor.New(cfg.Governor)
		if gerr != nil {
			return PlaylistResult{}, gerr
		}
		gov = g
	}
	if err := gov.Attach(eng, coreCPU); err != nil {
		return PlaylistResult{}, err
	}
	defer gov.Detach()

	rrc := netsim.DefaultUMTS()
	rrc.FastDormancy = cfg.FastDormancy
	radio, err := netsim.NewRadio(eng, rrc)
	if err != nil {
		return PlaylistResult{}, err
	}
	radio.OnPower(meter.Listener(energy.ComponentRadio))
	dl, err := netsim.NewDownloader(eng, netsim.Constant{Bps: 8e6}, radio, coreCPU, netsim.DefaultDownloaderConfig())
	if err != nil {
		return PlaylistResult{}, err
	}
	bg, err := cpu.StartLoadGen(eng, coreCPU, sim.Stream(cfg.Seed, "bgload"), cpu.DefaultLoadGenConfig())
	if err != nil {
		return PlaylistResult{}, err
	}

	var out PlaylistResult
	var startClip func(i int)
	startClip = func(i int) {
		if i >= cfg.Videos {
			bg.Stop()
			eng.Stop()
			return
		}
		spec := video.DefaultSpec(video.TitleSports, video.R720p)
		stream, gerr := video.Generate(spec, cfg.VideoDur, cfg.Seed+int64(i))
		if gerr != nil {
			if err == nil {
				err = gerr
			}
			eng.Stop()
			return
		}
		pcfg := player.DefaultConfig()
		pcfg.ABR = abr.Fixed{Rung: 0}
		pcfg.Hooks = hooks
		pcfg.Meter = meter
		pcfg.LowWaterSec = 10 // burst prefetch: realistic radio pattern
		sess, serr := player.NewSession(eng, coreCPU, dl, []*video.Stream{stream}, pcfg)
		if serr != nil {
			if err == nil {
				err = serr
			}
			eng.Stop()
			return
		}
		sess.OnDone(func() {
			m := sess.Metrics()
			out.Drops += m.DroppedFrames
			out.Rebuffers += m.RebufferCount
			out.Completed++
			eng.Schedule(cfg.ThinkDur, func() { startClip(i + 1) })
		})
		sess.Start()
	}
	startClip(0)
	horizon := sim.Time(cfg.Videos)*(cfg.VideoDur*6+cfg.ThinkDur) + 120*sim.Second
	eng.RunUntil(horizon)
	meter.Finish()
	if err != nil {
		return PlaylistResult{}, err
	}
	out.CPUJ = meter.ComponentJ(energy.ComponentCPU)
	out.RadioJ = meter.ComponentJ(energy.ComponentRadio)
	out.DisplayJ = meter.ComponentJ(energy.ComponentDisplay)
	out.WallS = eng.Now().Seconds()
	return out, nil
}

// TableT7 reproduces Table 7 (extension): the whole usage session —
// watch, pause, watch — where radio tails during think time meet the CPU
// policy during playback.
func TableT7(_ RunFunc) (Table, error) {
	t := Table{
		ID:     "t7",
		Title:  "Usage session (3 × 60 s clips, 30 s think time, UMTS): policy × dormancy",
		Header: []string{"governor", "dormancy", "cpu_j", "radio_j", "display_j", "total_j", "mean_w", "drops", "rebuffers"},
		Notes:  "the two savings compose: the CPU policy cuts playback energy while fast dormancy reclaims the think-time radio tails",
	}
	for _, gov := range []string{"ondemand", "energyaware"} {
		for _, fd := range []bool{false, true} {
			res, err := RunPlaylist(PlaylistConfig{
				Governor:     gov,
				Videos:       3,
				VideoDur:     60 * sim.Second,
				ThinkDur:     30 * sim.Second,
				FastDormancy: fd,
				Seed:         1,
			})
			if err != nil {
				return Table{}, fmt.Errorf("t7 %s fd=%v: %w", gov, fd, err)
			}
			if res.Completed != 3 {
				return Table{}, fmt.Errorf("t7 %s fd=%v: %d/3 clips completed", gov, fd, res.Completed)
			}
			dormancy := "tails"
			if fd {
				dormancy = "fast"
			}
			t.Rows = append(t.Rows, []string{
				gov, dormancy, f1(res.CPUJ), f1(res.RadioJ), f1(res.DisplayJ),
				f1(res.TotalJ()), f2c(res.MeanW()), iv(res.Drops), iv(res.Rebuffers),
			})
		}
	}
	return t, nil
}
