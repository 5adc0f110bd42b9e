package workload

import (
	"reflect"
	"testing"

	"github.com/eurosys23/ice/internal/android"
	"github.com/eurosys23/ice/internal/device"
	"github.com/eurosys23/ice/internal/policy"
	"github.com/eurosys23/ice/internal/sim"
)

// TestTracedRunMatchesUntraced pins that recording a trace observes the
// simulation without steering it: for every registered scheme on every
// device, a traced S-B run must produce the same result surface, the same
// instrument snapshot and the same number of dispatched engine events
// (less the counter sampler's own) as the untraced run.
//
// A traced scheduler emits one span per quantum, so it runs every round
// individually, while an untraced one advances pure quanta in closed form
// (sched's batch). The comparison is therefore also the end-to-end proof
// that batching is exact.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("full scheme × device simulation sweep")
	}
	devices := []device.Profile{device.Pixel3, device.P20, device.P40, device.Pixel4}
	for _, name := range policy.Names() {
		for _, dev := range devices {
			name, dev := name, dev
			t.Run(name+"/"+dev.Name, func(t *testing.T) {
				t.Parallel()
				run := func(traceCap int) (ScenarioResult, *android.System) {
					sch, err := policy.ByName(name)
					if err != nil {
						t.Fatalf("ByName(%q): %v", name, err)
					}
					return runScenario(ScenarioConfig{
						Scenario: "S-B",
						Device:   dev,
						Scheme:   sch,
						BGCase:   BGApps,
						Duration: 10 * sim.Second,
						Seed:     7,
						TraceCap: traceCap,
					})
				}
				plain, plainSys := run(0)
				traced, tracedSys := run(4096)
				if traced.Trace == nil || traced.Trace.Recorded == 0 {
					t.Fatal("traced run recorded no events")
				}

				if !reflect.DeepEqual(plain.Obs.Counters, traced.Obs.Counters) {
					t.Errorf("counters differ:\nuntraced %v\ntraced   %v", plain.Obs.Counters, traced.Obs.Counters)
				}
				if !reflect.DeepEqual(plain.Obs.Gauges, traced.Obs.Gauges) {
					t.Errorf("gauges differ:\nuntraced %v\ntraced   %v", plain.Obs.Gauges, traced.Obs.Gauges)
				}
				if !reflect.DeepEqual(plain.Obs.Hists, traced.Obs.Hists) {
					t.Error("histograms differ")
				}
				traced.Trace, traced.Subjects = nil, nil
				if !reflect.DeepEqual(plain, traced) {
					t.Error("result surface differs between the traced and untraced runs")
				}

				now := tracedSys.Eng.Now()
				if p := plainSys.Eng.Now(); p != now {
					t.Fatalf("runs ended at %v (untraced) and %v (traced)", p, now)
				}
				// The sampler starts with the device at time zero and
				// fires every period through the final instant.
				samples := uint64(now / android.CounterSamplePeriod)
				if got, want := tracedSys.Eng.Dispatched()-samples, plainSys.Eng.Dispatched(); got != want {
					t.Errorf("dispatched %d events traced (less %d samples), %d untraced", got, samples, want)
				}
			})
		}
	}
}
