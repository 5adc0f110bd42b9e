package workload

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eurosys23/ice/internal/android"
	"github.com/eurosys23/ice/internal/app"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/sim"
)

// deviceProbe carries a finalizer for one simulated device. A device hook
// is its only referrer, so it becomes garbage exactly when the device
// does. The finalizer cannot sit on the *android.System itself: the
// System is self-referential (its activity manager points back at it),
// and the runtime never runs a finalizer on an object inside a cycle.
type deviceProbe struct{ freed *atomic.Bool }

// retentionScheme is Ice with a deviceProbe attached to each device it
// manages.
type retentionScheme struct {
	*policy.Ice
	freed *atomic.Bool
}

func (s retentionScheme) Attach(sys *android.System) {
	probe := &deviceProbe{freed: s.freed}
	runtime.SetFinalizer(probe, func(p *deviceProbe) { p.freed.Store(true) })
	sys.Hooks.AppLaunch = append(sys.Hooks.AppLaunch, func(*android.Instance) { runtime.KeepAlive(probe) })
	s.Ice.Attach(sys)
}

func newRetentionScheme(freed *atomic.Bool) policy.Scheme {
	ice, _ := policy.ByName("Ice")
	return retentionScheme{Ice: ice.(*policy.Ice), freed: freed}
}

// collected runs the collector until the probe's finalizer has run, or
// gives up.
func collected(freed *atomic.Bool) bool {
	for i := 0; i < 50 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return freed.Load()
}

// scenarioOnly runs a scenario whose scheme never escapes: the caller
// gets the result and nothing else.
func scenarioOnly(freed *atomic.Bool) ScenarioResult {
	return RunScenario(ScenarioConfig{
		Scenario: "S-A",
		Device:   device.Pixel3,
		Scheme:   newRetentionScheme(freed),
		BGCase:   BGApps,
		NumBG:    2,
		Duration: 2 * sim.Second,
		Seed:     5,
	})
}

// A kept ScenarioResult must not keep its simulated device alive: a
// matrix run holds every cell's result until the reduction, and a
// result that reached its device (through the scheme, the framework or
// anything else) would hold every device's page arena with it.
func TestScenarioResultDoesNotRetainDevice(t *testing.T) {
	var freed atomic.Bool
	res := scenarioOnly(&freed)
	if !collected(&freed) {
		t.Fatal("simulated device still reachable from a kept ScenarioResult")
	}
	if res.Frames.Completed == 0 {
		t.Fatal("scenario rendered no frames")
	}
	runtime.KeepAlive(res)
}

func launchLoopOnly(freed *atomic.Bool) LaunchLoopResult {
	return RunLaunchLoop(LaunchLoopConfig{
		Device: device.Pixel3,
		Scheme: newRetentionScheme(freed),
		Rounds: 1,
		Dwell:  sim.Second,
		Apps:   app.Catalog()[:3],
		Seed:   5,
	})
}

func TestLaunchLoopResultDoesNotRetainDevice(t *testing.T) {
	var freed atomic.Bool
	res := launchLoopOnly(&freed)
	if !collected(&freed) {
		t.Fatal("simulated device still reachable from a kept LaunchLoopResult")
	}
	if n := len(res.All.Records); n != 3 {
		t.Fatalf("launch loop recorded %d launches, want 3", n)
	}
	runtime.KeepAlive(res)
}
