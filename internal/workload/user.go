package workload

import (
	"github.com/eurosys23/ice/internal/android"
	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/mm"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/sim"
)

// UserConfig models one §3.1 study volunteer: daily sessions of app usage
// on one of the Table-2 devices, with the memory instrumentation the paper
// added to Android. Days are time-compressed: each simulated day is
// SessionsPerDay usage sessions back to back; counters are reported per
// day.
type UserConfig struct {
	Device device.Profile
	Scheme policy.Scheme
	Seed   int64
	// Days of usage to simulate (the paper collected one month).
	Days int
	// SessionsPerDay is how many app sessions a day comprises.
	SessionsPerDay int
	// SessionDur is the foreground time per session.
	SessionDur sim.Time
	// ZipfS skews app choice (users favour a few apps).
	ZipfS float64
}

// DayStats is one day of a user's memory activity.
type DayStats struct {
	Evicted   uint64
	Refaulted uint64
	RefaultBG uint64
	RefaultFG uint64
}

// UserResult is one simulated volunteer's month.
type UserResult struct {
	Days []DayStats
	// Cumulative series sampled once per session (the paper samples every
	// 30 s) for the Figure 3b timeline.
	CumEvicted   []uint64
	CumRefaulted []uint64
	Final        mm.Stats
	LMKKills     int
}

// TotalEvicted sums across days.
func (u *UserResult) TotalEvicted() uint64 {
	var t uint64
	for _, d := range u.Days {
		t += d.Evicted
	}
	return t
}

// TotalRefaulted sums across days.
func (u *UserResult) TotalRefaulted() uint64 {
	var t uint64
	for _, d := range u.Days {
		t += d.Refaulted
	}
	return t
}

// RefaultRatio is refaulted/evicted over the whole period.
func (u *UserResult) RefaultRatio() float64 {
	if e := u.TotalEvicted(); e > 0 {
		return float64(u.TotalRefaulted()) / float64(e)
	}
	return 0
}

// BGShare is the fraction of refaults from background processes.
func (u *UserResult) BGShare() float64 { return u.Final.BGRefaultShare() }

// RunUser simulates one volunteer.
func RunUser(cfg UserConfig) UserResult {
	if cfg.Days <= 0 {
		cfg.Days = 7
	}
	if cfg.SessionsPerDay <= 0 {
		cfg.SessionsPerDay = 10
	}
	if cfg.SessionDur <= 0 {
		cfg.SessionDur = 20 * sim.Second
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 0.9
	}
	sys := android.NewSystem(cfg.Seed, cfg.Device)
	if cfg.Scheme != nil {
		cfg.Scheme.Attach(sys)
	}
	catalog := app.Catalog()
	sys.AM.InstallAll(catalog)
	rng := sim.NewRand(cfg.Seed ^ 0x0ebf00d)
	zipf := sim.NewZipf(rng, len(catalog), cfg.ZipfS)
	// Each volunteer has their own favourite ordering.
	order := rng.Perm(len(catalog))

	var res UserResult
	sys.MM.ResetStats()
	var prev mm.Stats
	for day := 0; day < cfg.Days; day++ {
		for s := 0; s < cfg.SessionsPerDay; s++ {
			name := catalog[order[zipf.Next()]].Name
			sys.AM.RequestForeground(name, nil)
			waitLaunchIdle(sys)
			inst := sys.AM.App(name)
			inst.StartUsage()
			sys.Run(rng.Jitter(cfg.SessionDur, 0.4))
			inst.StopUsage()
			// Screen-off gap between sessions: background apps keep
			// running.
			sys.AM.RequestHome()
			sys.Run(rng.Duration(2*sim.Second, 6*sim.Second))

			st := sys.MM.Stats()
			res.CumEvicted = append(res.CumEvicted, st.Total.Reclaimed)
			res.CumRefaulted = append(res.CumRefaulted, st.Total.Refaulted)
		}
		st := sys.MM.Stats()
		res.Days = append(res.Days, DayStats{
			Evicted:   st.Total.Reclaimed - prev.Total.Reclaimed,
			Refaulted: st.Total.Refaulted - prev.Total.Refaulted,
			RefaultBG: st.RefaultBG - prev.RefaultBG,
			RefaultFG: st.RefaultFG - prev.RefaultFG,
		})
		prev = st
	}
	res.Final = sys.MM.Stats()
	res.LMKKills = sys.LMK.Kills
	return res
}

// StudyUsers returns the configuration of the paper's eight volunteers on
// their Table-2 devices.
func StudyUsers(baseSeed int64, days int) []UserConfig {
	devices := []device.Profile{
		device.P20, device.P20,
		device.P40, device.P40,
		device.Pixel3, device.Pixel3,
		device.Pixel4, device.Pixel4,
	}
	cfgs := make([]UserConfig, len(devices))
	for i, dev := range devices {
		cfgs[i] = UserConfig{
			Device: dev,
			Seed:   baseSeed + int64(i)*7919,
			Days:   days,
		}
	}
	return cfgs
}
