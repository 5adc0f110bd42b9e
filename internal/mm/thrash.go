package mm

import (
	"math"

	"github.com/eurosys23/ice/internal/sim"
)

// thrashMeter measures the recent system-wide reclaim+refault rate over a
// sliding window of fixed-size buckets. The rate drives the thrash
// coupling: the aggregate slowdown every memory-touching task experiences
// while the memory subsystem is churning (see Config.ThrashCoupling).
type thrashMeter struct {
	window  sim.Time
	buckets [4]int
	// bucketStart is the start time of the current (last) bucket.
	bucketStart sim.Time
	cur         int
}

func (t *thrashMeter) bucketLen(window sim.Time) sim.Time {
	return window / sim.Time(len(t.buckets))
}

// advance rotates buckets so that the current bucket covers now.
func (t *thrashMeter) advance(now, window sim.Time) {
	bl := t.bucketLen(window)
	if bl <= 0 {
		return
	}
	for t.bucketStart+bl <= now {
		t.bucketStart += bl
		t.cur = (t.cur + 1) % len(t.buckets)
		t.buckets[t.cur] = 0
		if t.bucketStart+sim.Time(len(t.buckets))*bl < now {
			// Long idle gap: fast-forward.
			for i := range t.buckets {
				t.buckets[i] = 0
			}
			t.bucketStart = now
			break
		}
	}
}

// note records activity at now, in tenths of an event: cheap operations
// (dropping clean file cache) weigh less than anonymous compression or
// refault service.
func (t *thrashMeter) note(now, window sim.Time, tenths int) {
	t.advance(now, window)
	t.buckets[t.cur] += tenths
}

// rate returns events per second over the window.
func (t *thrashMeter) rate(now, window sim.Time) float64 {
	t.advance(now, window)
	var sum int
	for _, b := range t.buckets {
		sum += b
	}
	secs := window.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(sum) / 10 / secs
}

// ThrashRate reports the recent weighted reclaim+refault rate in pages per
// second. MDT-style policies and the experiments read it; the fault path
// uses it to price the thrash coupling.
func (m *Manager) ThrashRate() float64 {
	return m.thrash.rate(m.eng.Now(), m.cfg.ThrashWindow)
}

// PeekThrashRate reports what ThrashRate would, without touching the
// meter. ThrashRate's idle fast-forward re-anchors the bucket grid at the
// caller's time, so calling it is itself a simulation input; observers
// that must not perturb the run (the trace counter sampler) rate a copy.
func (m *Manager) PeekThrashRate() float64 {
	meter := m.thrash
	return meter.rate(m.eng.Now(), m.cfg.ThrashWindow)
}

// RefaultRate reports the recent refault rate in pages per second. The
// low-memory killer's PSI-style trigger reads it: refault churn is the
// memory-stall pressure lmkd reacts to, distinct from cold-start reclaim
// volume.
func (m *Manager) RefaultRate() float64 {
	return m.refaultMeter.rate(m.eng.Now(), m.cfg.ThrashWindow)
}

// thrashStall prices one memory phase against the current thrash rate.
//
// The mean stall follows a sub-linear power law, mean = K·rate^e with
// e < 1: interference channels saturate (locks serialise, queues overlap)
// rather than add linearly. The draw is dispersed — half the phases slip through free,
// the other half pay an exponential with twice the mean — because real
// jank is bursty: some frames render on time even on a thrashing device,
// others blow far past the deadline. The dispersion preserves the mean.
func (m *Manager) thrashStall() sim.Time {
	if m.cfg.ThrashCoupling <= 0 {
		return 0
	}
	rate := m.ThrashRate()
	if rate <= 0 {
		return 0
	}
	mean := float64(m.cfg.ThrashCoupling) * math.Pow(rate, m.cfg.ThrashExponent)
	// 60 % of phases slip through free; the rest pay an exponential with
	// 2.5× the mean, preserving the overall mean.
	if m.rng.Bool(0.6) {
		return 0
	}
	stall := sim.Time(m.rng.Exp(2.5 * mean))
	if stall > m.cfg.ThrashMaxStall {
		stall = m.cfg.ThrashMaxStall
	}
	return stall
}
