// Package sched provides scheduling policies for the shm machine, from
// benign baselines (round-robin, uniform random, stochastic delays) to the
// adaptive adversaries the paper analyzes: the Section-5 stale-gradient
// adversary behind the Ω(τ) lower bound, and a generic maximum-staleness
// adversary operating under an interval-contention budget τmax (the regime
// of the Section-6 upper bounds).
//
// Adversaries identify the role of pending operations through the
// contention.Tag annotations attached by the SGD thread programs; this is
// consistent with the paper's strong adversary, which observes the
// algorithm's state and coin flips.
package sched

import (
	"asyncsgd/internal/contention"
	"asyncsgd/internal/rng"
	"asyncsgd/internal/shm"
)

// RoundRobin schedules live threads cyclically. It is the maximally fair
// baseline: staleness stays O(n). With a single live thread every step
// goes to that thread, so the decision holds to the thread's end
// (shm.HoldToEnd).
type RoundRobin struct {
	last int
}

var _ shm.Policy = (*RoundRobin)(nil)

// Next implements shm.Policy.
func (p *RoundRobin) Next(v *shm.View) shm.Decision {
	n := v.NumThreads()
	for k := 1; k <= n; k++ {
		i := (p.last + k) % n
		if v.Live(i) {
			p.last = i
			d := shm.Decision{Thread: i}
			if v.LiveCount() == 1 {
				d.Hold = shm.HoldToEnd
			}
			return d
		}
	}
	return shm.Decision{Thread: -1}
}

// Random schedules a uniformly random live thread each step. This is the
// oblivious stochastic scheduler assumed by much of the prior Hogwild
// analysis (e.g. De Sa et al.).
type Random struct {
	R *rng.Rand

	live []int // reused candidate buffer
}

var _ shm.Policy = (*Random)(nil)

// Next implements shm.Policy.
func (p *Random) Next(v *shm.View) shm.Decision {
	n := v.NumThreads()
	p.live = p.live[:0]
	for i := 0; i < n; i++ {
		if v.Live(i) {
			p.live = append(p.live, i)
		}
	}
	if len(p.live) == 0 {
		return shm.Decision{Thread: -1}
	}
	return shm.Decision{Thread: p.live[p.R.Intn(len(p.live))]}
}

// GeometricPause schedules uniformly at random among unpaused live
// threads, and after every step pauses the stepped thread with probability
// PauseProb for a Geometric(Resume)-distributed number of steps. This
// models stochastic OS-style delays with geometric tails (the delay model
// of several prior works) without an adaptive adversary.
type GeometricPause struct {
	R         *rng.Rand
	PauseProb float64 // probability a thread is paused after a step
	Resume    float64 // geometric resume parameter in (0,1]

	pausedUntil []int
	avail       []int // reused candidate buffer
}

var _ shm.Policy = (*GeometricPause)(nil)

// Next implements shm.Policy.
func (p *GeometricPause) Next(v *shm.View) shm.Decision {
	n := v.NumThreads()
	if p.pausedUntil == nil {
		p.pausedUntil = make([]int, n)
	}
	now := v.Time()
	p.avail = p.avail[:0]
	for i := 0; i < n; i++ {
		if v.Live(i) && p.pausedUntil[i] <= now {
			p.avail = append(p.avail, i)
		}
	}
	if len(p.avail) == 0 {
		// All live threads paused: wake the one with the earliest resume
		// time (time only advances on steps, so waiting is meaningless).
		best := -1
		for i := 0; i < n; i++ {
			if v.Live(i) && (best == -1 || p.pausedUntil[i] < p.pausedUntil[best]) {
				best = i
			}
		}
		if best == -1 {
			return shm.Decision{Thread: -1}
		}
		p.pausedUntil[best] = now
		p.avail = append(p.avail, best)
	}
	tid := p.avail[p.R.Intn(len(p.avail))]
	if p.R.Bernoulli(p.PauseProb) {
		p.pausedUntil[tid] = now + 1 + p.R.Geometric(p.Resume)
	}
	return shm.Decision{Thread: tid}
}

// tagOf extracts the contention tag of thread i's pending op, if any.
func tagOf(v *shm.View, i int) (contention.Tag, bool) {
	req, ok := v.Pending(i)
	if !ok || req.Tag.Role == 0 {
		return contention.Tag{}, false
	}
	return req.Tag, true
}

// gateBlocked reports whether thread i is parked at a gated-discipline
// synchronization read it cannot currently pass: the pending op is a
// RoleGate read whose register value is still below the threshold the
// worker encoded in Tag.Coord. A blocked thread only spins until some
// other thread publishes a completion, so scheduling it cannot advance
// the algorithm; the delay-injecting adversaries treat it as
// unschedulable — which is precisely how a bounded-staleness gate caps
// the delay τ they can inject (E16).
func gateBlocked(v *shm.View, i int) bool {
	req, ok := v.Pending(i)
	if !ok {
		return false
	}
	if req.Tag.Role != contention.RoleGate || req.Kind != shm.OpRead {
		return false
	}
	return v.Load(req.Addr) < float64(req.Tag.Coord)
}
